//! Generators shared by several property suites.

use proptest::prelude::*;
use typederive::workload::GenParams;

/// The random-schema parameters of the engine-agreement corpus
/// (`property_engines.rs`, 220 cases): up to 27 types with multiple
/// inheritance, up to 9 generic functions of arity 1–2.
pub fn engine_corpus_params() -> impl Strategy<Value = GenParams> {
    (
        2usize..28,   // n_types
        1usize..4,    // max_supers
        0.0f64..0.8,  // mi_fraction
        0usize..3,    // attrs_per_type
        0.3f64..1.0,  // reader_fraction
        1usize..10,   // n_gfs
        1usize..4,    // methods_per_gf
        1usize..3,    // max_arity
        0usize..5,    // calls_per_body
        0.0f64..0.6,  // assign_fraction
        any::<u64>(), // seed
    )
        .prop_map(
            |(
                n_types,
                max_supers,
                mi_fraction,
                attrs_per_type,
                reader_fraction,
                n_gfs,
                methods_per_gf,
                max_arity,
                calls_per_body,
                assign_fraction,
                seed,
            )| GenParams {
                n_types,
                max_supers,
                mi_fraction,
                attrs_per_type,
                reader_fraction,
                n_gfs,
                methods_per_gf,
                max_arity,
                calls_per_body,
                assign_fraction,
                seed,
            },
        )
}
