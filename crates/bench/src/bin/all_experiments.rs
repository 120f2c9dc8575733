//! Prints the paper's tables and figures: `all_experiments` prints every
//! one, `all_experiments <name>` the one named (`fig6`, `table4`, …; see
//! `cortex_bench_harness::experiments::ALL`). `CORTEX_BENCH_SCALE=smoke`
//! shrinks the hidden sizes.

use cortex_bench_harness::experiments::{by_name, ALL};

fn main() {
    let scale = cortex_bench_harness::Scale::from_env();
    match std::env::args().nth(1) {
        None => {
            for (_, run) in ALL {
                println!("{}", run(scale));
            }
        }
        Some(name) => match by_name(&name) {
            Some(run) => println!("{}", run(scale)),
            None => {
                let names: Vec<&str> = ALL.iter().map(|(n, _)| *n).collect();
                eprintln!("unknown experiment {name:?}; one of: {}", names.join(", "));
                std::process::exit(2);
            }
        },
    }
}
