//! The one command-line parser every pifo-bench entry point shares.
//!
//! The `repro` binary takes a PIFO engine selector and the three bench
//! mains take a CI smoke switch; routing them through this module keeps
//! the accepted spellings and the error text identical everywhere. In
//! particular there is exactly one place that knows how to turn a
//! `--backend` value into a [`PifoBackend`]: the enum's `FromStr` impl
//! via [`extract_backend`], so a new backend variant (or a
//! parameterised one like `sp-pifo:4`) becomes available to every binary
//! the moment the enum learns it — no per-binary match arms to drift out
//! of sync.

use pifo_core::pifo::{PifoBackend, BACKEND_NAMES};

/// Pull `--backend <name>` / `--backend=<name>` out of `args` (removing
/// the consumed tokens) and parse it. Returns `Ok(None)` when the flag
/// is absent, `Err` with a user-facing message when the flag is
/// malformed or the name unknown. Later occurrences override earlier
/// ones, like most CLIs.
pub fn extract_backend(args: &mut Vec<String>) -> Result<Option<PifoBackend>, String> {
    let mut backend = None;
    let mut i = 0;
    while i < args.len() {
        let value = if args[i] == "--backend" {
            if i + 1 >= args.len() {
                return Err(format!("--backend requires a value ({BACKEND_NAMES})"));
            }
            args.remove(i);
            Some(args.remove(i))
        } else if let Some(v) = args[i].strip_prefix("--backend=") {
            let v = v.to_string();
            args.remove(i);
            Some(v)
        } else {
            i += 1;
            None
        };
        if let Some(v) = value {
            backend = Some(v.parse::<PifoBackend>()?);
        }
    }
    Ok(backend)
}

/// The `--backend` usage fragment, built from the same name list the
/// parser accepts.
pub fn backend_usage() -> String {
    format!("[--backend <{BACKEND_NAMES}>]")
}

/// True when the invocation asks for the CI smoke scale: `--smoke` on
/// the command line. Every bench main consults this instead of probing
/// `std::env` itself.
pub fn smoke_flag() -> bool {
    std::env::args().any(|a| a == "--smoke")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn absent_flag_leaves_args_untouched() {
        let mut a = args(&["fig2", "stfq"]);
        assert_eq!(extract_backend(&mut a), Ok(None));
        assert_eq!(a, args(&["fig2", "stfq"]));
    }

    #[test]
    fn both_spellings_parse_and_are_consumed() {
        let mut a = args(&["--backend", "heap", "fig2"]);
        assert_eq!(extract_backend(&mut a), Ok(Some(PifoBackend::Heap)));
        assert_eq!(a, args(&["fig2"]));

        let mut a = args(&["fig2", "--backend=sp-pifo:4"]);
        assert_eq!(
            extract_backend(&mut a),
            Ok(Some(PifoBackend::SpPifo { queues: 4 }))
        );
        assert_eq!(a, args(&["fig2"]));
    }

    #[test]
    fn last_occurrence_wins() {
        let mut a = args(&["--backend=sorted", "--backend", "aifo"]);
        assert_eq!(extract_backend(&mut a), Ok(Some(PifoBackend::Aifo)));
        assert!(a.is_empty());
    }

    #[test]
    fn errors_carry_the_full_name_list() {
        let mut a = args(&["--backend", "quantum"]);
        let err = extract_backend(&mut a).unwrap_err();
        for family in ["sorted", "heap", "bucket", "sp-pifo", "rifo", "aifo"] {
            assert!(err.contains(family), "error must list '{family}': {err}");
        }
        let mut a = args(&["--backend"]);
        let err = extract_backend(&mut a).unwrap_err();
        assert!(err.contains("requires a value"), "{err}");
        assert!(err.contains("sp-pifo"), "{err}");
    }
}
