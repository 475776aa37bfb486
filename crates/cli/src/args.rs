//! Minimal flag parsing (no external dependencies): `--flag value` pairs,
//! repeatable flags, and positional arguments. Each subcommand names the
//! flags it reads; any other flag is an error, so a misspelt one fails
//! instead of being ignored.

use std::collections::HashMap;

/// Parsed command line: flag → values (repeatable) plus positionals.
#[derive(Debug, Default, Clone)]
pub struct Args {
    flags: HashMap<String, Vec<String>>,
    positionals: Vec<String>,
    /// Bare switches seen (`--tax` style, no value).
    switches: Vec<String>,
}

/// Flags that take no value.
const SWITCHES: &[&str] = &[
    "tax",
    "pretty",
    "explain",
    "json",
    "allow-shutdown",
    "writable",
];

impl Args {
    /// Parse `argv` (without the subcommand), accepting only the flags
    /// in `known`. Every `--flag` not in the switch list consumes the
    /// next token as its value.
    pub fn parse(argv: &[String], known: &[&str]) -> Result<Args, String> {
        let mut out = Args::default();
        let mut i = 0;
        while i < argv.len() {
            let a = &argv[i];
            if let Some(name) = a.strip_prefix("--") {
                if !known.contains(&name) {
                    return Err(format!("unknown flag --{name}"));
                }
                if SWITCHES.contains(&name) {
                    out.switches.push(name.to_string());
                    i += 1;
                } else {
                    let value = argv
                        .get(i + 1)
                        .ok_or_else(|| format!("flag --{name} needs a value"))?;
                    out.flags
                        .entry(name.to_string())
                        .or_default()
                        .push(value.clone());
                    i += 2;
                }
            } else {
                out.positionals.push(a.clone());
                i += 1;
            }
        }
        Ok(out)
    }

    /// A flag expected at most once.
    pub fn one(&self, name: &str) -> Result<Option<&str>, String> {
        match self.flags.get(name).map(Vec::as_slice) {
            None => Ok(None),
            Some([v]) => Ok(Some(v)),
            Some(_) => Err(format!("flag --{name} given more than once")),
        }
    }

    /// A required single-value flag.
    pub fn required(&self, name: &str) -> Result<&str, String> {
        self.one(name)?
            .ok_or_else(|| format!("missing required flag --{name}"))
    }

    /// All values of a repeatable flag.
    pub fn many(&self, name: &str) -> &[String] {
        self.flags.get(name).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Whether a switch was given.
    pub fn switch(&self, name: &str) -> bool {
        self.switches.iter().any(|s| s == name)
    }

    /// Positional arguments.
    pub fn positionals(&self) -> &[String] {
        &self.positionals
    }
}

/// Split a `tag=value` pair.
pub fn tag_value(s: &str) -> Result<(&str, &str), String> {
    s.split_once('=')
        .ok_or_else(|| format!("expected tag=value, got `{s}`"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    const KNOWN: &[&str] = &["db", "eq", "tax", "pretty"];

    #[test]
    fn flags_switches_positionals() {
        let a = Args::parse(
            &argv("--db store.json f1.xml --eq a=1 --eq b=2 --tax f2.xml"),
            KNOWN,
        )
        .unwrap();
        assert_eq!(a.required("db").unwrap(), "store.json");
        assert_eq!(a.many("eq"), &["a=1".to_string(), "b=2".to_string()]);
        assert!(a.switch("tax"));
        assert!(!a.switch("pretty"));
        assert_eq!(a.positionals(), &["f1.xml".to_string(), "f2.xml".to_string()]);
    }

    #[test]
    fn missing_value_is_an_error() {
        assert!(Args::parse(&argv("--db"), KNOWN).is_err());
    }

    #[test]
    fn unknown_flags_are_rejected_by_name() {
        // a misspelt value flag, a misspelt switch, and a real flag of
        // another subcommand are all refused, each named in the error
        for (line, flag) in [
            ("--db a --timeout 1", "--timeout"),
            ("--explian x", "--explian"),
            ("--db a --writable", "--writable"),
            ("--part-of", "--part-of"),
        ] {
            let err = Args::parse(&argv(line), KNOWN).unwrap_err();
            assert!(err.contains(flag), "{line}: {err}");
        }
        // positionals are not flags
        assert!(Args::parse(&argv("timeout"), KNOWN).is_ok());
    }

    #[test]
    fn duplicate_single_flag_rejected() {
        let a = Args::parse(&argv("--db a --db b"), KNOWN).unwrap();
        assert!(a.one("db").is_err());
    }

    #[test]
    fn required_missing() {
        let a = Args::parse(&argv("x"), KNOWN).unwrap();
        assert!(a.required("db").is_err());
        assert_eq!(a.one("db").unwrap(), None);
    }

    #[test]
    fn tag_value_split() {
        assert_eq!(tag_value("author=J. Ullman").unwrap(), ("author", "J. Ullman"));
        assert!(tag_value("nope").is_err());
        // values may contain '='
        assert_eq!(tag_value("a=b=c").unwrap(), ("a", "b=c"));
    }
}
