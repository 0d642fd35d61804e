//! `repro` — regenerate every table and figure of the paper.
//!
//! ```text
//! repro list                        # show all experiment ids
//! repro <id> [<id>...]              # run selected experiments
//! repro all                         # run everything in order
//! repro --backend bucket <id>...    # run on a specific PIFO engine
//! repro --backend sp-pifo:4 <id>... # … including approximate ones
//! repro pfc                         # the Sec 6.2 lossless demo
//! repro domino                      # the Sec 4.1 compiler pipeline
//! repro telemetry                   # the observability tour
//! ```

use pifo_bench::cli;
use pifo_bench::experiments::{self, registry, run, set_backend};

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();

    // Extract `--backend <name>` / `--backend=<name>` before dispatching
    // — one shared parser across every pifo-bench entry point.
    match cli::extract_backend(&mut args) {
        Ok(Some(choice)) => set_backend(choice),
        // No flag: `experiments::backend()` resolves the default.
        Ok(None) => {}
        Err(e) => {
            eprintln!("repro: {e}");
            std::process::exit(2);
        }
    }
    let backend = experiments::backend();

    if args.is_empty() || args[0] == "list" || args[0] == "--help" || args[0] == "-h" {
        eprintln!(
            "usage: repro {} <experiment id>... | all | list\n",
            cli::backend_usage()
        );
        eprintln!("experiments:");
        for (id, desc, _) in registry() {
            eprintln!("  {id:<12} {desc}");
        }
        std::process::exit(if args.first().map(|a| a == "list").unwrap_or(false) {
            0
        } else {
            2
        });
    }

    let ids: Vec<String> = if args[0] == "all" {
        registry()
            .into_iter()
            .map(|(id, _, _)| id.to_string())
            .collect()
    } else {
        args
    };

    // Full experiment sweeps belong in release builds; a debug `all`
    // silently runs orders of magnitude slower as the experiments scale
    // up. Keep `cargo test -q` (which never runs this binary) and
    // habit-formed debug invocations fast by refusing, with an escape
    // hatch for people who really mean it.
    if ids.len() > 1 && cfg!(debug_assertions) && std::env::var_os("PIFO_REPRO_DEBUG").is_none() {
        eprintln!(
            "repro: refusing to run {} experiments in a debug build.\n\
             Use `cargo run -p pifo-bench --bin repro --release -- all`,\n\
             run a single experiment id, or set PIFO_REPRO_DEBUG=1 to override.",
            ids.len()
        );
        std::process::exit(2);
    }

    let mut failed = false;
    for id in &ids {
        match run(id) {
            Some(report) => {
                println!("================================================================");
                println!("[pifo backend: {backend}]");
                println!("{report}");
            }
            None => {
                eprintln!("unknown experiment '{id}' (try `repro list`)");
                failed = true;
            }
        }
    }
    if failed {
        std::process::exit(1);
    }
}
