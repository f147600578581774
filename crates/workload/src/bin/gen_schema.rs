//! Writes one generated random schema as TDL text — the CI
//! `snapshot-gate` job uses this to build the large cold-start fixture
//! it snapshots and reloads.
//!
//! ```text
//! gen_schema <out.td> [n-types] [seed]
//! ```
//!
//! The generator is deterministic in its parameters, so the same
//! arguments reproduce the same file on any machine. `-h`/`--help`
//! prints the usage; any other argument starting with `-` is rejected
//! (exit 2) rather than taken for a file name.

use td_model::text::schema_to_text;
use td_workload::wide_schema;

const USAGE: &str = "usage: gen_schema <out.td> [n-types] [seed]";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "-h" || a == "--help") {
        println!("{USAGE}");
        return;
    }
    if let Some(flag) = args.iter().find(|a| a.starts_with('-')) {
        eprintln!("gen_schema: unknown option `{flag}`\n{USAGE}");
        std::process::exit(2);
    }
    let Some(out) = args.first() else {
        eprintln!("{USAGE}");
        std::process::exit(2);
    };
    let n_types: usize = args.get(1).map_or(10_000, |v| {
        v.parse().unwrap_or_else(|_| {
            eprintln!("gen_schema: `{v}` is not a type count");
            std::process::exit(2);
        })
    });
    let seed: u64 = args.get(2).map_or(0x5EED, |v| {
        v.parse().unwrap_or_else(|_| {
            eprintln!("gen_schema: `{v}` is not a seed");
            std::process::exit(2);
        })
    });

    let schema = wide_schema(n_types, seed);
    std::fs::write(out, schema_to_text(&schema)).expect("write schema text");
    println!(
        "wrote {out}: {} types, {} methods",
        schema.live_type_ids().count(),
        schema.n_methods()
    );
}
