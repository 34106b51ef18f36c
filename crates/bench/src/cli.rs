//! Minimal command-line handling shared by the experiment binaries.

/// Experiment scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Scale {
    /// Seconds-scale smoke run (CI / integration tests).
    Smoke,
    /// Laptop-scale default preserving the paper's setup shapes.
    #[default]
    Default,
    /// The paper's exact experiment sizes (can take a long time).
    Full,
}

impl Scale {
    /// Parse from raw process arguments: `--smoke` / `--full` shorthands or
    /// `--scale smoke|default|full`.
    ///
    /// An unrecognized `--scale` value aborts the process: silently falling
    /// back to `Default` would turn an intended seconds-scale smoke run
    /// into a potentially hours-long one.
    pub fn from_args<S: AsRef<str>>(args: &[S]) -> Self {
        if flag_present(args, "--scale") {
            return match flag_value(args, "--scale") {
                Some("smoke") => Scale::Smoke,
                Some("default") => Scale::Default,
                Some("full") => Scale::Full,
                Some(other) => {
                    eprintln!(
                        "error: unknown --scale value {other:?} (expected smoke, default, or full)"
                    );
                    std::process::exit(2);
                }
                None => {
                    eprintln!("error: --scale requires a value (smoke, default, or full)");
                    std::process::exit(2);
                }
            };
        }
        if args.iter().any(|a| a.as_ref() == "--smoke") {
            Scale::Smoke
        } else if args.iter().any(|a| a.as_ref() == "--full") {
            Scale::Full
        } else {
            Scale::Default
        }
    }

    /// Pick one of three values by scale.
    pub fn pick<T: Copy>(self, smoke: T, default: T, full: T) -> T {
        match self {
            Scale::Smoke => smoke,
            Scale::Default => default,
            Scale::Full => full,
        }
    }
}

/// Whether `--flag` appears at all (either `--flag value` or `--flag=value`).
/// Lets callers distinguish "flag absent" from "flag present but malformed".
pub fn flag_present<S: AsRef<str>>(args: &[S], flag: &str) -> bool {
    args.iter().any(|a| {
        let a = a.as_ref();
        a == flag || (a.starts_with(flag) && a.as_bytes().get(flag.len()) == Some(&b'='))
    })
}

/// Value of `--flag value` or `--flag=value` style options, if present.
pub fn flag_value<'a, S: AsRef<str>>(args: &'a [S], flag: &str) -> Option<&'a str> {
    for (i, arg) in args.iter().enumerate() {
        let a = arg.as_ref();
        if a == flag {
            return args.get(i + 1).map(|s| s.as_ref());
        }
        if a.starts_with(flag) && a.as_bytes().get(flag.len()) == Some(&b'=') {
            return Some(&a[flag.len() + 1..]);
        }
    }
    None
}

/// A standard experiment banner.
pub fn banner(id: &str, title: &str, scale: Scale) -> String {
    format!("=== {id}: {title} [scale: {scale:?}] ===\n",)
}

/// The scale options every experiment binary accepts.
const SCALE_FLAGS: &[(&str, &str)] = &[
    ("--scale <s>", "smoke | default | full (default: default)"),
    ("--smoke", "shorthand for --scale smoke"),
    ("--full", "shorthand for --scale full"),
];

/// Render the standard usage text for an experiment binary: the shared
/// scale options plus any binary-specific `(flag, description)` extras.
pub fn usage(bin: &str, title: &str, extra: &[(&str, &str)]) -> String {
    flag_usage(bin, title, &[SCALE_FLAGS, extra].concat())
}

/// Render usage text listing exactly `flags` (plus `--help`), for a
/// binary that takes no scale options.
pub fn flag_usage(bin: &str, title: &str, flags: &[(&str, &str)]) -> String {
    let mut out = format!("{title}\n\nusage: {bin} [options]\n\noptions:\n");
    for (flag, desc) in flags {
        out.push_str(&format!("  {flag:<13} {desc}\n"));
    }
    out.push_str("  --help, -h    print this message and exit\n");
    out
}

/// True iff `--help` or `-h` appears anywhere in the arguments.
pub fn help_requested<S: AsRef<str>>(args: &[S]) -> bool {
    args.iter()
        .any(|a| a.as_ref() == "--help" || a.as_ref() == "-h")
}

/// Standard help handling for experiment binaries: if `--help`/`-h` was
/// passed, print the usage text and exit 0 (before any scale parsing, so
/// `--help` never triggers the strict unknown-value abort).
pub fn handle_help<S: AsRef<str>>(args: &[S], bin: &str, title: &str, extra: &[(&str, &str)]) {
    if help_requested(args) {
        print!("{}", usage(bin, title, extra));
        std::process::exit(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scales() {
        assert_eq!(Scale::from_args(&["--smoke"]), Scale::Smoke);
        assert_eq!(Scale::from_args(&["--full"]), Scale::Full);
        assert_eq!(Scale::from_args(&["whatever"]), Scale::Default);
        assert_eq!(Scale::from_args::<&str>(&[]), Scale::Default);
    }

    #[test]
    fn parses_scale_flag_form() {
        assert_eq!(Scale::from_args(&["--scale", "smoke"]), Scale::Smoke);
        assert_eq!(Scale::from_args(&["--scale", "default"]), Scale::Default);
        assert_eq!(Scale::from_args(&["--scale", "full"]), Scale::Full);
        assert_eq!(Scale::from_args(&["--scale=smoke"]), Scale::Smoke);
        assert_eq!(Scale::from_args(&["--scale=full"]), Scale::Full);
        // The value form wins over a stray shorthand elsewhere in argv.
        assert_eq!(
            Scale::from_args(&["--full", "--scale", "smoke"]),
            Scale::Smoke
        );
    }

    #[test]
    fn flag_present_detects_both_forms() {
        assert!(flag_present(&["--scale", "smoke"], "--scale"));
        assert!(flag_present(&["--scale=smoke"], "--scale"));
        assert!(flag_present(&["--scale"], "--scale"));
        assert!(!flag_present(&["--scales", "smoke"], "--scale"));
        assert!(!flag_present::<&str>(&[], "--scale"));
    }

    #[test]
    fn flag_value_equals_form() {
        assert_eq!(flag_value(&["--part=pmi"], "--part"), Some("pmi"));
        assert_eq!(flag_value(&["--part="], "--part"), Some(""));
        assert_eq!(flag_value(&["--part"], "--part"), None);
        assert_eq!(flag_value(&["--partial=pmi"], "--part"), None);
    }

    #[test]
    fn pick_follows_scale() {
        assert_eq!(Scale::Smoke.pick(1, 2, 3), 1);
        assert_eq!(Scale::Default.pick(1, 2, 3), 2);
        assert_eq!(Scale::Full.pick(1, 2, 3), 3);
    }

    #[test]
    fn flag_values() {
        let args = ["--part", "pmi", "--smoke"];
        assert_eq!(flag_value(&args, "--part"), Some("pmi"));
        assert_eq!(flag_value(&args, "--missing"), None);
        assert_eq!(flag_value(&args, "--smoke"), None);
    }

    #[test]
    fn banner_contains_id() {
        assert!(banner("F2", "title", Scale::Default).contains("F2"));
    }

    #[test]
    fn help_requested_matches_both_spellings() {
        assert!(help_requested(&["--help"]));
        assert!(help_requested(&["-h"]));
        assert!(help_requested(&["--smoke", "-h"]));
        assert!(!help_requested(&["--scale", "smoke"]));
        assert!(!help_requested::<&str>(&[]));
        // No prefix matching: `-hh` and `--helpme` are not help requests.
        assert!(!help_requested(&["-hh", "--helpme"]));
    }

    #[test]
    fn usage_lists_shared_and_extra_flags() {
        let u = usage(
            "fig8_wikipedia",
            "Figure 8",
            &[("--part <p>", "assignments | pmi | all")],
        );
        assert!(u.contains("usage: fig8_wikipedia"));
        assert!(u.contains("--scale"));
        assert!(u.contains("--smoke"));
        assert!(u.contains("--full"));
        assert!(u.contains("--part <p>"));
        assert!(u.contains("assignments | pmi | all"));
        assert!(u.contains("--help"));
        let plain = usage("table0_case_study", "Table 0", &[]);
        assert!(!plain.contains("--part"));
    }
}
