//! Machine-checked statements of the paper's correctness claims.
//!
//! §5: "the new type has the correct state and behavior, and the types …
//! have both the same cumulative state and behavior as before the creation
//! of the new type." We verify, given the schema before and after a
//! derivation:
//!
//! * **I1 state preservation** — every original type's cumulative
//!   attribute set is unchanged;
//! * **I2 behavior preservation** — for every generic function, dispatch
//!   over tuples of original types selects the same method (method ids are
//!   stable across factorization, so this is a direct comparison);
//! * **I3 derived state** — the derived type's cumulative attributes are
//!   exactly the projection list;
//! * **I4 derived behavior** — the methods applicable to the derived type
//!   are exactly those `IsApplicable` inferred;
//! * **I5 well-formedness** — the refactored schema still validates
//!   (acyclic, consistent precedence, type-correct bodies);
//! * **subtype preservation** — the subtype relation restricted to
//!   original types is unchanged.
//!
//! Dispatch comparison enumerates argument tuples exhaustively up to a
//! budget and deterministically strides beyond it, so reports are
//! reproducible.
//!
//! The I2 replay visits every `(gf, tuple)` key exactly once per schema,
//! so a per-key dispatch table could only ever miss. It dispatches with
//! `Schema::most_specific_one_shot` instead: a scan of the gf's methods,
//! ranked with the memoized per-type rank tables that every tuple over
//! the same types reuses. The per-`(gf, args)` tables are neither read
//! nor written. `before` is normally the frozen parent snapshot of the
//! fork the derivation ran on (see `project`), so its rank tables are
//! the shared, already-warm ones.

use std::collections::BTreeSet;
use td_model::{AttrId, CallArg, DispatchCacheStats, GfId, MethodId, Schema, TypeId};

/// One observed divergence from the paper's guarantees.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// An original type's cumulative attribute set changed (I1).
    StateChanged {
        /// The affected type.
        ty: TypeId,
        /// Attributes it lost.
        missing: Vec<AttrId>,
        /// Attributes it gained.
        extra: Vec<AttrId>,
    },
    /// Dispatch over original types changed (I2).
    DispatchChanged {
        /// The generic function.
        gf: GfId,
        /// The argument tuple (original types).
        args: Vec<TypeId>,
        /// Most specific applicable method before.
        before: Option<MethodId>,
        /// Most specific applicable method after.
        after: Option<MethodId>,
    },
    /// The derived type's cumulative state is not the projection (I3).
    DerivedStateWrong {
        /// The derived type.
        derived: TypeId,
        /// Projected attributes it lacks.
        missing: Vec<AttrId>,
        /// Unprojected attributes it has.
        extra: Vec<AttrId>,
    },
    /// The derived type does not inherit exactly the inferred methods (I4).
    DerivedBehaviorWrong {
        /// The derived type.
        derived: TypeId,
        /// Inferred-applicable methods that do not apply to it.
        missing: Vec<MethodId>,
        /// Methods that apply to it but were not inferred.
        extra: Vec<MethodId>,
    },
    /// The refactored schema fails validation (I5).
    SchemaInvalid(String),
    /// The subtype relation over original types changed.
    SubtypeChanged {
        /// Candidate subtype.
        sub: TypeId,
        /// Candidate supertype.
        sup: TypeId,
        /// Relation held before.
        before: bool,
        /// Relation holds after.
        after: bool,
    },
}

/// The outcome of checking all invariants for one derivation.
#[derive(Debug, Clone, Default)]
pub struct InvariantReport {
    /// All violations found (empty = every guarantee holds).
    pub violations: Vec<Violation>,
    /// Number of dispatch tuples compared for I2.
    pub dispatch_tuples_checked: usize,
    /// Dispatch-cache counters of the refactored (`after`) schema once the
    /// check finished. The I2 replay shows up in the rank-table counters
    /// (`cpl_hits`/`cpl_misses`) only: it never touches the per-call
    /// dispatch tables, so `dispatch_hits`/`dispatch_misses` count the
    /// derivation's own lookups.
    pub dispatch_cache: DispatchCacheStats,
}

impl InvariantReport {
    /// True when no violation was found.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Budget of dispatch tuples examined per generic function.
const TUPLE_BUDGET: usize = 2048;
/// Budget of dispatch tuples examined across the whole I2 replay. On
/// paper-scale schemas the per-gf budget binds first and behavior is
/// unchanged; on generated schemas with thousands of generic functions
/// this caps the replay (and the dispatch-cache footprint it warms) at
/// a fixed sample instead of letting it grow with `gfs × tuples`.
const TOTAL_TUPLE_BUDGET: usize = 200_000;
/// Budget of type pairs examined for subtype preservation.
const PAIR_BUDGET: usize = 40_000;

/// Checks all invariants. `before` is the schema as it was before the
/// derivation (the fork's frozen parent, or a clone); `derived`,
/// `projection` and `applicable` come from the derivation outcome.
pub fn check_invariants(
    before: &Schema,
    after: &Schema,
    derived: TypeId,
    projection: &BTreeSet<AttrId>,
    applicable: &[MethodId],
) -> InvariantReport {
    let mut report = InvariantReport::default();

    // I5 first: a malformed schema makes the other checks meaningless.
    if let Err(e) = after.validate() {
        report
            .violations
            .push(Violation::SchemaInvalid(e.to_string()));
        report.dispatch_cache = after.dispatch_cache_stats();
        return report;
    }

    let originals: Vec<TypeId> = before.live_type_ids().collect();

    // I1: cumulative state of original types.
    for &t in &originals {
        let b = before.cumulative_attrs(t);
        let a = after.cumulative_attrs(t);
        if a != b {
            report.violations.push(Violation::StateChanged {
                ty: t,
                missing: b.difference(&a).copied().collect(),
                extra: a.difference(&b).copied().collect(),
            });
        }
    }

    // Subtype preservation over original types.
    let total_pairs = originals.len() * originals.len();
    let stride = total_pairs.div_ceil(PAIR_BUDGET).max(1);
    for idx in (0..total_pairs).step_by(stride) {
        let x = originals[idx / originals.len()];
        let y = originals[idx % originals.len()];
        let was = before.is_subtype(x, y);
        let is = after.is_subtype(x, y);
        if was != is {
            report.violations.push(Violation::SubtypeChanged {
                sub: x,
                sup: y,
                before: was,
                after: is,
            });
        }
    }

    // I2: dispatch over original-type tuples.
    let n_gfs = before.gf_ids().count();
    let per_gf_budget = (TOTAL_TUPLE_BUDGET / n_gfs.max(1)).clamp(1, TUPLE_BUDGET);
    for gf in before.gf_ids() {
        let arity = before.gf(gf).arity;
        if arity == 0 || originals.is_empty() {
            continue;
        }
        // Only object-typed tuples are interesting; primitive positions do
        // not change across factorization. Enumerate type tuples over the
        // original types, strided to the budget.
        let total = originals
            .len()
            .checked_pow(arity as u32)
            .unwrap_or(usize::MAX);
        let stride = total.div_ceil(per_gf_budget).max(1);
        let mut tuple = Vec::with_capacity(arity);
        let mut args = Vec::with_capacity(arity);
        let mut idx = 0usize;
        while idx < total {
            let mut rem = idx;
            tuple.clear();
            args.clear();
            for _ in 0..arity {
                let t = originals[rem % originals.len()];
                tuple.push(t);
                args.push(CallArg::Object(t));
                rem /= originals.len();
            }
            let b = before.most_specific_one_shot(gf, &args);
            let a = after.most_specific_one_shot(gf, &args);
            report.dispatch_tuples_checked += 1;
            match (b, a) {
                (Ok(b), Ok(a)) => {
                    if b != a {
                        report.violations.push(Violation::DispatchChanged {
                            gf,
                            args: tuple.clone(),
                            before: b,
                            after: a,
                        });
                    }
                }
                (Err(e), _) | (_, Err(e)) => {
                    report
                        .violations
                        .push(Violation::SchemaInvalid(format!("dispatch failed: {e}")));
                }
            }
            idx += stride;
        }
    }

    // I3: derived state == projection.
    let derived_attrs = after.cumulative_attrs(derived);
    if &derived_attrs != projection {
        report.violations.push(Violation::DerivedStateWrong {
            derived,
            missing: projection.difference(&derived_attrs).copied().collect(),
            extra: derived_attrs.difference(projection).copied().collect(),
        });
    }

    // I4: methods applicable to the derived type == inferred set.
    let actual: BTreeSet<MethodId> = after
        .methods_applicable_to_type(derived)
        .into_iter()
        .collect();
    let inferred: BTreeSet<MethodId> = applicable.iter().copied().collect();
    if actual != inferred {
        report.violations.push(Violation::DerivedBehaviorWrong {
            derived,
            missing: inferred.difference(&actual).copied().collect(),
            extra: actual.difference(&inferred).copied().collect(),
        });
    }

    report.dispatch_cache = after.dispatch_cache_stats();
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use td_model::ValueType;

    #[test]
    fn identical_schemas_pass_trivially() {
        let mut s = Schema::new();
        let a = s.add_type("A", &[]).unwrap();
        let x = s.add_attr("x", ValueType::INT, a).unwrap();
        s.add_accessors(x).unwrap();
        let before = s.clone();
        // Trivial "derivation": derived type = A itself, projection = {x},
        // applicable = both accessors.
        let methods: Vec<MethodId> = s.method_ids().collect();
        let proj: BTreeSet<AttrId> = [x].into_iter().collect();
        let report = check_invariants(&before, &s, a, &proj, &methods);
        assert!(report.ok(), "{:?}", report.violations);
        assert!(report.dispatch_tuples_checked > 0);
    }

    #[test]
    fn i2_replay_reports_cache_counters() {
        let mut s = Schema::new();
        let a = s.add_type("A", &[]).unwrap();
        let b = s.add_type("B", &[a]).unwrap();
        let x = s.add_attr("x", ValueType::INT, a).unwrap();
        let y = s.add_attr("y", ValueType::INT, a).unwrap();
        // Two methods per generic function so the replay must consult rank
        // tables (single-method dispatch short-circuits without them).
        s.add_reader(x, a).unwrap();
        s.add_reader(x, b).unwrap();
        s.add_reader(y, a).unwrap();
        s.add_reader(y, b).unwrap();
        let before = s.clone();
        let methods: Vec<MethodId> = s.method_ids().collect();
        let proj: BTreeSet<AttrId> = [x, y].into_iter().collect();
        let at_start = s.dispatch_cache_stats();
        let report = check_invariants(&before, &s, b, &proj, &methods);
        assert!(report.ok(), "{:?}", report.violations);
        // The second generic function's replay reuses the rank tables the
        // first one built, and no (gf, tuple) key goes through the
        // per-call dispatch tables: each is visited once, so a table
        // entry could only ever miss.
        let replay = report.dispatch_cache.delta(&at_start);
        assert!(replay.cpl_hits > 0, "{replay:?}");
        assert_eq!(
            replay.dispatch_hits + replay.dispatch_misses,
            0,
            "{replay:?}"
        );
        assert_eq!(report.dispatch_cache.dispatch_entries, 0);
    }

    #[test]
    fn state_change_detected() {
        let mut s = Schema::new();
        let a = s.add_type("A", &[]).unwrap();
        let b = s.add_type("B", &[a]).unwrap();
        let x = s.add_attr("x", ValueType::INT, a).unwrap();
        let before = s.clone();
        // Maliciously move x down to B: A loses state.
        s.move_attr(x, b).unwrap();
        let report = check_invariants(&before, &s, b, &BTreeSet::new(), &[]);
        assert!(report
            .violations
            .iter()
            .any(|v| matches!(v, Violation::StateChanged { ty, .. } if *ty == a)));
    }

    #[test]
    fn subtype_change_detected() {
        let mut s = Schema::new();
        let a = s.add_type("A", &[]).unwrap();
        let b = s.add_type("B", &[a]).unwrap();
        let before = s.clone();
        s.remove_super_edge(b, a);
        let report = check_invariants(&before, &s, b, &BTreeSet::new(), &[]);
        assert!(report
            .violations
            .iter()
            .any(|v| matches!(v, Violation::SubtypeChanged { .. })));
    }

    #[test]
    fn derived_state_mismatch_detected() {
        let mut s = Schema::new();
        let a = s.add_type("A", &[]).unwrap();
        let x = s.add_attr("x", ValueType::INT, a).unwrap();
        let before = s.clone();
        // Claim projection {} but the "derived type" A still has x.
        let report = check_invariants(&before, &s, a, &BTreeSet::new(), &[]);
        assert!(report
            .violations
            .iter()
            .any(|v| matches!(v, Violation::DerivedStateWrong { extra, .. } if extra == &vec![x])));
    }

    #[test]
    fn derived_behavior_mismatch_detected() {
        let mut s = Schema::new();
        let a = s.add_type("A", &[]).unwrap();
        let x = s.add_attr("x", ValueType::INT, a).unwrap();
        let (_, m) = s.add_reader(x, a).unwrap();
        let before = s.clone();
        // Claim nothing is applicable, but the reader applies to A.
        let proj: BTreeSet<AttrId> = [x].into_iter().collect();
        let report = check_invariants(&before, &s, a, &proj, &[]);
        assert!(report.violations.iter().any(
            |v| matches!(v, Violation::DerivedBehaviorWrong { extra, .. } if extra == &vec![m])
        ));
    }
}
