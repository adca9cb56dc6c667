//! Command-line helpers shared by the harness binaries.
//!
//! Every bin takes `--name value` pairs; a missing flag or an unparsable
//! value falls back to the default, so `--n abc` runs with the default n.

use std::str::FromStr;

/// The argument following `name` on the command line, if any.
fn value(name: &str) -> Option<String> {
    let mut args = std::env::args();
    args.position(|a| a == name)?;
    args.next()
}

fn parsed<T: FromStr>(name: &str, default: T) -> T {
    value(name).and_then(|v| v.parse().ok()).unwrap_or(default)
}

/// `--name <u64>`, or `default` when absent or unparsable.
#[must_use]
pub fn arg(name: &str, default: u64) -> u64 {
    parsed(name, default)
}

/// `--name <f64>`, or `default` when absent or unparsable.
#[must_use]
pub fn arg_f64(name: &str, default: f64) -> f64 {
    parsed(name, default)
}

/// `--name <string>`, or `default` when absent.
#[must_use]
pub fn arg_str(name: &str, default: &str) -> String {
    value(name).unwrap_or_else(|| default.to_string())
}
