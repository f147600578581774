//! Seeded schema **mutation streams** for the delta-invalidation
//! property suite.
//!
//! [`apply_random_mutations`] evolves a live schema in place through a
//! deterministic, seeded sequence of edits — new subtypes, new
//! attributes with accessors, new generic functions, new methods on
//! existing generic functions, and no-op touches through the `*_mut`
//! accessors. Every edit goes through the ordinary `td_model::Schema`
//! mutation API, so each one emits its `SchemaDelta` into the dispatch
//! cache exactly as production edits do.
//!
//! The point is equivalence testing: replay the same stream into two
//! copies of a schema, let one keep its delta-invalidated warm caches
//! and force the other through a full `clear_dispatch_cache` rebuild,
//! and every derivation report must come out byte-identical. The
//! returned log describes each step so a failing seed prints a usable
//! reproduction recipe.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use td_model::{BodyBuilder, Expr, MethodKind, Schema, Specializer, TypeId, ValueType};

/// `base` if `taken` rejects it, else the first of `base_2`, `base_3`, …
/// it accepts. Step-numbered names collide only when a stream runs again
/// over a schema an earlier stream already mutated.
fn fresh_name(base: String, taken: impl Fn(&str) -> bool) -> String {
    if !taken(&base) {
        return base;
    }
    (2..)
        .map(|k| format!("{base}_{k}"))
        .find(|name| !taken(name))
        .expect("some suffix is free")
}

/// Applies `n` seeded random mutations to `schema` and returns a
/// human-readable log of what each step did.
///
/// Every mutation keeps the schema well-formed (the stream only adds
/// entities or touches existing ones; it never breaks a linearization).
/// Given equal starting schemas and equal `(n, seed)`, two replays make
/// exactly the same edits in the same order. The function may run again
/// on a schema it already mutated: a step-numbered name that is taken
/// gets the first free `_2`, `_3`, … suffix.
pub fn apply_random_mutations(schema: &mut Schema, n: usize, seed: u64) -> Vec<String> {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x_DE17A_u64);
    let mut log = Vec::with_capacity(n);
    for step in 0..n {
        let live: Vec<TypeId> = schema.live_type_ids().collect();
        let kind = rng.gen_range(0..5);
        let entry = match kind {
            // A new leaf subtype under a random live type: dirties the
            // parent's descendant cone (which is empty — it's a leaf).
            0 => {
                let parent = live[rng.gen_range(0..live.len())];
                let name = fresh_name(format!("Mut{step}"), |n| schema.type_id(n).is_ok());
                let t = schema
                    .add_type(name.clone(), &[parent])
                    .expect("fresh name cannot collide");
                format!(
                    "step {step}: add type {name} : {} ({t:?})",
                    schema.type_name(parent)
                )
            }
            // A new attribute plus reader on a random type: extends the
            // footprint universe without touching existing CPLs.
            1 => {
                let owner = live[rng.gen_range(0..live.len())];
                let name = fresh_name(format!("mut{step}_a"), |n| schema.attr_id(n).is_ok());
                let a = schema
                    .add_attr(name.clone(), ValueType::INT, owner)
                    .expect("fresh attr cannot collide");
                schema.add_reader(a, owner).expect("owner has the attr");
                format!(
                    "step {step}: add attr {name} + reader on {}",
                    schema.type_name(owner)
                )
            }
            // A brand-new unary generic function with one method whose
            // body reads a random accessor.
            2 => {
                let spec = live[rng.gen_range(0..live.len())];
                let gf_name = fresh_name(format!("mutf{step}"), |n| schema.gf_id(n).is_ok());
                let gf = schema
                    .add_gf(gf_name.clone(), 1, None)
                    .expect("fresh gf cannot collide");
                let accessors: Vec<_> = schema
                    .gf_ids()
                    .filter(|&g| schema.gf_name(g).starts_with("get_"))
                    .collect();
                let mut bb = BodyBuilder::new();
                if !accessors.is_empty() {
                    let callee = accessors[rng.gen_range(0..accessors.len())];
                    bb.call(callee, vec![Expr::Param(0)]);
                }
                schema
                    .add_method(
                        gf,
                        format!("{gf_name}_m"),
                        vec![Specializer::Type(spec)],
                        MethodKind::General(bb.finish()),
                        None,
                    )
                    .expect("first method of a fresh gf cannot collide");
                format!(
                    "step {step}: add gf {gf_name} with method on {}",
                    schema.type_name(spec)
                )
            }
            // A new method on a random *existing* generic function —
            // the single-method-edit shape the DELTA experiment gates.
            // Duplicate specializer tuples are rejected by the schema;
            // the rejection is itself deterministic, so both replays
            // agree on whether the method landed.
            3 => {
                let gfs: Vec<_> = schema.gf_ids().collect();
                let gf = gfs[rng.gen_range(0..gfs.len())];
                let arity = schema.gf(gf).arity;
                let specs: Vec<Specializer> = (0..arity)
                    .map(|_| Specializer::Type(live[rng.gen_range(0..live.len())]))
                    .collect();
                let label = fresh_name(format!("mut{step}_m"), |l| {
                    schema.method_by_label(l).is_ok()
                });
                let mut bb = BodyBuilder::new();
                bb.call(gf, (0..arity).map(Expr::Param).collect());
                let landed = schema
                    .add_method(
                        gf,
                        label.clone(),
                        specs,
                        MethodKind::General(bb.finish()),
                        None,
                    )
                    .is_ok();
                format!(
                    "step {step}: add method {label} to {} (landed: {landed})",
                    schema.gf_name(gf)
                )
            }
            // A touch: borrow a random method mutably without changing
            // it. The delta must still evict every index that could see
            // the method — over-invalidation is allowed, staleness is
            // not — and the reports must stay identical.
            _ => {
                let methods: Vec<_> = schema.method_ids().collect();
                if methods.is_empty() {
                    log.push(format!("step {step}: touch skipped (no methods)"));
                    continue;
                }
                let m = methods[rng.gen_range(0..methods.len())];
                let label = schema.method_label(m).to_string();
                let _ = schema.method_mut(m);
                format!("step {step}: touch method {label}")
            }
        };
        log.push(entry);
    }
    log
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{random_schema, GenParams};

    #[test]
    fn streams_are_deterministic_and_keep_the_schema_valid() {
        let params = GenParams {
            seed: 7,
            ..GenParams::default()
        };
        let mut a = random_schema(&params);
        let mut b = random_schema(&params);
        let la = apply_random_mutations(&mut a, 12, 99);
        let lb = apply_random_mutations(&mut b, 12, 99);
        assert_eq!(la, lb, "same seed must replay the same stream");
        assert_eq!(la.len(), 12);
        a.validate().expect("mutated schema stays well-formed");
        assert_eq!(
            td_model::schema_to_text(&a),
            td_model::schema_to_text(&b),
            "replayed schemas must be structurally identical"
        );
    }

    #[test]
    fn a_second_stream_over_a_mutated_schema_picks_fresh_names() {
        let params = GenParams {
            seed: 11,
            ..GenParams::default()
        };
        let run = || {
            let mut s = random_schema(&params);
            let first = apply_random_mutations(&mut s, 40, 5);
            let second = apply_random_mutations(&mut s, 40, 5);
            s.validate()
                .expect("twice-mutated schema stays well-formed");
            (first, second, td_model::schema_to_text(&s))
        };
        let (first, second, text) = run();
        assert_eq!(second.len(), 40);
        // The same stream again: every step-numbered name was taken, so
        // each addition got a suffix and the first stream's log is
        // unchanged.
        assert!(
            first.iter().any(|l| l.contains("add type Mut")),
            "{first:?}"
        );
        assert!(second.iter().any(|l| l.contains("_2")), "{second:?}");
        let mut fresh = random_schema(&params);
        assert_eq!(apply_random_mutations(&mut fresh, 40, 5), first);
        // Re-entry is as deterministic as the first call, and the
        // result (unique names throughout) parses back from its text.
        assert_eq!(run(), (first, second, text.clone()));
        td_model::parse_schema(&text).expect("text reparses");
    }

    #[test]
    fn different_seeds_diverge() {
        let params = GenParams::default();
        let mut a = random_schema(&params);
        let mut b = random_schema(&params);
        let la = apply_random_mutations(&mut a, 12, 1);
        let lb = apply_random_mutations(&mut b, 12, 2);
        assert_ne!(la, lb);
    }
}
