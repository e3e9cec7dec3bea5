//! A small `--key value` argument parser (no external dependency).

use std::collections::HashMap;

/// Parsed command line: a subcommand plus `--key value` flags.
#[derive(Debug, Clone, Default)]
pub(crate) struct Args {
    pub(crate) command: String,
    flags: HashMap<String, String>,
    /// `--key` with no value (boolean switches).
    switches: Vec<String>,
}

impl Args {
    /// Parse `argv[1..]`. The first non-flag token is the subcommand; flags
    /// are `--key value` or bare `--switch`.
    pub(crate) fn parse<I: IntoIterator<Item = String>>(argv: I) -> Result<Args, String> {
        let mut out = Args::default();
        let mut it = argv.into_iter().peekable();
        while let Some(tok) = it.next() {
            if let Some(key) = tok.strip_prefix("--") {
                if key.is_empty() {
                    return Err("empty flag name".into());
                }
                match it.peek() {
                    Some(v) if !v.starts_with("--") => {
                        let v = it.next().unwrap();
                        if out.flags.insert(key.to_string(), v).is_some() {
                            return Err(format!("duplicate flag --{key}"));
                        }
                    }
                    _ => out.switches.push(key.to_string()),
                }
            } else if out.command.is_empty() {
                out.command = tok;
            } else {
                return Err(format!("unexpected positional argument: {tok}"));
            }
        }
        Ok(out)
    }

    /// String flag with a default.
    pub(crate) fn get(&self, key: &str, default: &str) -> String {
        self.flags
            .get(key)
            .cloned()
            .unwrap_or_else(|| default.to_string())
    }

    /// Parsed flag with a default; errors name the flag.
    pub(crate) fn get_parse<T: std::str::FromStr>(
        &self,
        key: &str,
        default: T,
    ) -> Result<T, String> {
        match self.flags.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("invalid value for --{key}: {v}")),
        }
    }

    /// True when `--key` was passed bare.
    pub(crate) fn switch(&self, key: &str) -> bool {
        self.switches.iter().any(|s| s == key)
    }

    /// Flags the program never consumed (typo detection).
    pub(crate) fn assert_known(&self, known: &[&str]) -> Result<(), String> {
        for k in self.flags.keys().chain(self.switches.iter()) {
            if !known.contains(&k.as_str()) {
                return Err(format!("unknown flag --{k}"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        Args::parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_command_flags_switches() {
        let a = parse("train --steps 50 --verbose --lr 0.01").unwrap();
        assert_eq!(a.command, "train");
        assert_eq!(a.get_parse("steps", 0usize).unwrap(), 50);
        assert_eq!(a.get_parse("lr", 0.0f32).unwrap(), 0.01);
        assert!(a.switch("verbose"));
        assert!(!a.switch("quiet"));
    }

    #[test]
    fn defaults_apply() {
        let a = parse("project").unwrap();
        assert_eq!(a.get("preset", "14.5t"), "14.5t");
        assert_eq!(a.get_parse("nodes", 96_000usize).unwrap(), 96_000);
    }

    #[test]
    fn rejects_duplicates_and_positionals() {
        assert!(parse("train --steps 1 --steps 2").is_err());
        assert!(parse("train oops").is_err());
    }

    #[test]
    fn rejects_bad_values_and_unknown_flags() {
        let a = parse("train --steps banana").unwrap();
        assert!(a.get_parse("steps", 0usize).is_err());
        let a = parse("train --stepz 5").unwrap();
        assert!(a.assert_known(&["steps"]).is_err());
        assert!(a.assert_known(&["stepz"]).is_ok());
    }
}
