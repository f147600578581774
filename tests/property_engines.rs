//! Property: the three `IsApplicable` engines — the condensation-index
//! engine, the paper's stack algorithm and the greatest-fixpoint oracle —
//! classify identically on every randomly generated schema.
//!
//! The indexed engine answers single-candidate regions by bitset
//! footprint test and falls back to the stack algorithm for disjunctive
//! (§4.1 case-2 / multi-candidate) regions, so this suite is the direct
//! check on the fallback seam: any method the index wrongly claims, or
//! wrongly routes, shows up as a set difference. Each case exercises the
//! index cold (first build), warm (cached), and after a
//! cache-invalidating schema mutation (rebuild against the new
//! generation).

use proptest::prelude::*;
use std::collections::BTreeSet;
use typederive::derive::{
    compute_applicability, compute_applicability_fixpoint, compute_applicability_indexed,
};
use typederive::model::{MethodId, Schema, TypeId, ValueType};
use typederive::workload::{deepest_type, random_projection, random_schema};

mod common;

/// Runs all three engines and asserts their applicable / not-applicable
/// classifications are identical as sets (the indexed engine may order
/// its output differently; the paper's semantics is a set).
fn assert_engines_agree(
    schema: &Schema,
    source: TypeId,
    projection: &BTreeSet<typederive::model::AttrId>,
    label: &str,
) -> Result<(), TestCaseError> {
    let stack = compute_applicability(schema, source, projection, false).unwrap();
    let indexed = compute_applicability_indexed(schema, source, projection, false).unwrap();
    let fixpoint = compute_applicability_fixpoint(schema, source, projection).unwrap();
    let set = |v: &[MethodId]| v.iter().copied().collect::<BTreeSet<_>>();

    let stack_app = set(&stack.applicable);
    prop_assert_eq!(
        &stack_app,
        &set(&indexed.applicable),
        "{}: indexed applicable set diverges",
        label
    );
    prop_assert_eq!(
        &stack_app,
        &set(&fixpoint.applicable),
        "{}: fixpoint applicable set diverges",
        label
    );
    let stack_not = set(&stack.not_applicable);
    prop_assert_eq!(
        &stack_not,
        &set(&indexed.not_applicable),
        "{}: indexed not-applicable set diverges",
        label
    );
    prop_assert_eq!(
        &stack_not,
        &set(&fixpoint.not_applicable),
        "{}: fixpoint not-applicable set diverges",
        label
    );
    // is_applicable agrees with the lists on every engine.
    for &m in &stack.universe {
        prop_assert_eq!(stack.is_applicable(m), indexed.is_applicable(m));
        prop_assert_eq!(stack.is_applicable(m), fixpoint.is_applicable(m));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 220, ..ProptestConfig::default() })]

    #[test]
    fn engines_agree_cold_warm_and_after_mutation(
        params in common::engine_corpus_params(),
        keep in 0.0f64..1.0,
        proj_seed in any::<u64>(),
    ) {
        let mut schema = random_schema(&params);
        let source = deepest_type(&schema);
        let projection = random_projection(&schema, source, keep, proj_seed);

        // Cold: the first indexed call builds the condensation index.
        let before = schema.dispatch_cache_stats();
        assert_engines_agree(&schema, source, &projection, "cold")?;
        let after_cold = schema.dispatch_cache_stats();
        prop_assert!(
            after_cold.index_misses > before.index_misses,
            "cold run must build the index"
        );

        // Warm: the index is resident; answers must not change.
        assert_engines_agree(&schema, source, &projection, "warm")?;
        let after_warm = schema.dispatch_cache_stats();
        prop_assert!(
            after_warm.index_hits > after_cold.index_hits,
            "warm run must reuse the resident index"
        );
        prop_assert_eq!(after_warm.index_misses, after_cold.index_misses);

        // Mutate: a new attribute + reader at the source changes the
        // universe, bumps the schema generation, and must force a
        // rebuild — against which all engines still agree.
        let fresh = schema
            .add_attr(format!("fresh_{}", params.seed), ValueType::INT, source)
            .unwrap();
        schema.add_reader(fresh, source).unwrap();
        let grown: BTreeSet<_> = projection.iter().copied().chain([fresh]).collect();
        assert_engines_agree(&schema, source, &grown, "mutated")?;
        let after_mut = schema.dispatch_cache_stats();
        prop_assert!(
            after_mut.index_misses > after_warm.index_misses,
            "mutation must invalidate the index"
        );
    }
}
