//! # windserve-cli
//!
//! The `windserve` command-line tool: run serving simulations of the
//! WindServe system and its baselines from the shell, one at a time or
//! over a grid of systems, rates, fault presets and overload control,
//! with every knob of [`windserve::ServeConfig`] exposed as a flag.
//!
//! ```sh
//! windserve run --model opt-13b --dataset sharegpt --rate 4
//! windserve compare --vary system=windserve,distserve,vllm --rate 4
//! windserve compare --vary rate=1,2,3,4,5 --json
//! windserve compare --vary faults=none,decode-crash --vary overload=off,on
//! windserve budget --model llama2-70b
//! ```
//!
//! The library surface exists so the parser and command plumbing are unit
//! testable; `src/main.rs` is a thin shim.

// `deny` rather than `forbid`: `commands.rs` makes two audited FFI calls,
// each behind an `allow`: `signal` for the SIGTERM handler and `prctl`
// for the live paths' 1 ns timer slack.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod args;
mod build;
mod commands;
mod grid;
mod render;

use args::Args;

/// Dispatches a parsed command line; returns the text to print or an error
/// message for stderr.
///
/// # Errors
///
/// Returns a user-facing message for unknown commands or invalid flags.
pub fn dispatch(args: &Args) -> Result<String, args::ArgError> {
    if args.switch("help") {
        return Ok(commands::help());
    }
    match args.command.as_deref() {
        Some("run") => commands::run(args),
        Some("fleet") => commands::fleet(args),
        Some("compare") => commands::compare(args),
        Some("trace") => commands::trace(args),
        Some("trace-stats") => commands::trace_stats(args),
        Some("budget") => commands::budget(args),
        Some("serve") => commands::serve(args),
        Some("loadgen") => commands::loadgen(args),
        Some("help") | None => Ok(commands::help()),
        Some(other) => Err(args::ArgError(format!(
            "unknown command {other:?}; try `windserve help`"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn help_paths_work() {
        let none = Args::parse(Vec::<String>::new()).unwrap();
        assert!(dispatch(&none).unwrap().contains("USAGE"));
        let help = Args::parse(vec!["help".to_string()]).unwrap();
        assert!(dispatch(&help).unwrap().contains("COMMANDS"));
    }

    #[test]
    fn unknown_command_is_a_friendly_error() {
        let bad = Args::parse(vec!["frobnicate".to_string()]).unwrap();
        let err = dispatch(&bad).unwrap_err();
        assert!(err.0.contains("frobnicate"));
    }

    #[test]
    fn retired_perf_command_is_unknown() {
        // `sweep`, `faults` and `overload` are `compare --vary` axes now.
        for command in ["perf", "sweep", "faults", "overload"] {
            let args = Args::parse(vec![command.to_string()]).unwrap();
            let err = dispatch(&args).unwrap_err();
            let unknown = format!("unknown command {command:?}");
            assert!(err.0.starts_with(&unknown), "{}", err.0);
            assert!(!commands::help().contains(&format!("\n    {command} ")));
        }
    }
}
