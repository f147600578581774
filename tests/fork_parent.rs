//! A derivation on an unmutated `SchemaSnapshot::fork` checks I1–I5
//! against the fork's frozen parent instead of a deep clone taken at the
//! start of `project`. The shortcut must be invisible: the same
//! derivation JSON, the same violations and the same number of dispatch
//! tuples as a derivation on a plain clone — over the engine corpus and
//! over mutated schemas — and a fork that was changed before `project`
//! must fall back to the clone and stop pinning its parent.

use proptest::prelude::*;
use std::collections::BTreeSet;
use typederive::derive::{project, project_named, ProjectionOptions};
use typederive::model::{AttrId, Schema, TypeId, ValueType};
use typederive::server::derivation_json;
use typederive::workload::{
    apply_random_mutations, deepest_type, fig1, random_projection, random_schema, GenParams,
};

mod common;

/// Projects on `schema` and renders the derivation JSON, the violation
/// list and the tuple count (or the error).
fn derive(schema: &mut Schema, source: TypeId, projection: &BTreeSet<AttrId>) -> String {
    match project(schema, source, projection, &ProjectionOptions::default()) {
        Ok(d) => {
            let report = d.invariants.as_ref().expect("invariants are checked");
            format!(
                "{}violations: {:?}\ntuples: {}\n",
                derivation_json(schema, &d),
                report.violations,
                report.dispatch_tuples_checked
            )
        }
        Err(e) => format!("error: {e}\n"),
    }
}

/// Derives one view on a fresh fork of `base` and on a deep clone of it
/// and requires identical outcomes; the fork must have used its parent.
fn fork_matches_clone(base: &Schema, source: TypeId, projection: &BTreeSet<AttrId>) -> String {
    let snapshot = base.snapshot();
    let mut fork = snapshot.fork();
    assert!(
        fork.fork_parent().is_some(),
        "a fresh fork knows its parent"
    );
    let mut clone = base.clone();
    assert!(
        clone.fork_parent().is_none(),
        "a clone of a non-fork has no parent"
    );
    let on_fork = derive(&mut fork, source, projection);
    let on_clone = derive(&mut clone, source, projection);
    assert_eq!(on_fork, on_clone, "fork and clone derivations diverged");
    if !on_fork.starts_with("error") {
        assert!(
            fork.fork_parent().is_none(),
            "the derivation mutated the fork"
        );
        assert_eq!(
            snapshot.handles(),
            1,
            "a mutated fork must not pin its parent"
        );
    }
    on_fork
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 220, ..ProptestConfig::default() })]

    #[test]
    fn fork_derivations_equal_clone_derivations_on_the_engine_corpus(
        params in common::engine_corpus_params(),
        keep in 0.0f64..1.0,
        proj_seed in any::<u64>(),
    ) {
        let schema = random_schema(&params);
        let source = deepest_type(&schema);
        let projection = random_projection(&schema, source, keep, proj_seed);
        fork_matches_clone(&schema, source, &projection);
    }
}

#[test]
fn fork_derivations_equal_clone_derivations_after_mutation_streams() {
    // The streams of `crates/core/tests/delta_consistency.rs`.
    for (schema_seed, stream_seed, steps) in [
        (1, 101, 16),
        (2, 202, 16),
        (3, 303, 16),
        (0xD0_0D, 404, 16),
        (42, 4242, 48),
    ] {
        let mut schema = random_schema(&GenParams {
            seed: schema_seed,
            ..GenParams::default()
        });
        apply_random_mutations(&mut schema, steps, stream_seed);
        let mut views = 0;
        for (i, source) in schema.live_type_ids().enumerate() {
            if i % 5 != 0 {
                continue;
            }
            let projection = random_projection(&schema, source, 0.6, stream_seed ^ i as u64);
            let out = fork_matches_clone(&schema, source, &projection);
            views += usize::from(!out.starts_with("error"));
        }
        assert!(views > 0, "stream {stream_seed} derived no view");
    }
}

#[test]
fn a_fork_mutated_before_project_falls_back_to_a_clone_and_releases_its_parent() {
    let snapshot = fig1().into_snapshot();
    let mut fork = snapshot.fork();
    assert_eq!(snapshot.handles(), 2, "an unmutated fork holds its parent");

    // Give an ancestor of the source new state. Compared against the
    // parent (which lacks it), I1 would report Person and Employee as
    // changed; against the pre-derivation clone nothing changed.
    let person = fork.type_id("Person").unwrap();
    fork.add_attr("nickname", ValueType::STR, person).unwrap();
    assert!(fork.fork_parent().is_none());
    assert_eq!(snapshot.handles(), 1, "the mutation released the parent");

    let d = project_named(
        &mut fork,
        "Employee",
        &["SSN", "date_of_birth", "pay_rate"],
        &ProjectionOptions::default(),
    )
    .unwrap();
    assert!(d.invariants_ok(), "{:#?}", d.invariants);
    assert_eq!(snapshot.handles(), 1);
}

#[test]
fn an_unmutated_fork_derives_against_its_parent_and_then_lets_go() {
    let snapshot = fig1().into_snapshot();
    let mut fork = snapshot.fork();
    let d = project_named(
        &mut fork,
        "Employee",
        &["SSN", "date_of_birth", "pay_rate"],
        &ProjectionOptions::default(),
    )
    .unwrap();
    assert!(d.invariants_ok(), "{:#?}", d.invariants);
    assert!(d.invariants.unwrap().dispatch_tuples_checked > 0);
    // `project` held the parent only for the check; the mutated fork
    // dropped its link at the first change.
    assert_eq!(snapshot.handles(), 1);
    // Freezing a fork never chains snapshots.
    let refrozen = snapshot.fork().into_snapshot();
    assert!(refrozen.fork().fork_parent().is_some());
    assert_eq!(snapshot.handles(), 1);
}
