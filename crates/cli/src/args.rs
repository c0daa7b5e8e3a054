//! Minimal `--flag value` argument parsing (no external dependencies).
//!
//! Every lookup goes through a typed getter, which records the key it
//! looked up; once a command has read its options it calls
//! [`Args::reject_unread`], so an option it does not take (misspelt,
//! retired, or meant for another mode) fails the command instead of
//! being silently ignored.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Display;
use std::ops::RangeInclusive;
use std::str::FromStr;

/// Parsed command line: a subcommand plus `--key value` options.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Args {
    /// First positional argument (the subcommand).
    pub command: Option<String>,
    /// `--key value` pairs; a flag without a value maps to `"true"`.
    options: BTreeMap<String, String>,
    /// Keys the getters have looked up, present or not.
    read: RefCell<BTreeSet<String>>,
}

/// Errors from argument parsing or typed lookups.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArgError {
    /// An option was given twice.
    Duplicate(String),
    /// A positional argument appeared after options.
    UnexpectedPositional(String),
    /// A required option is missing.
    Missing(String),
    /// An option the command did not read.
    Unread(String),
    /// An option's value failed to parse.
    Invalid {
        /// Option name.
        key: String,
        /// Offending value.
        value: String,
        /// What the option accepts.
        expected: String,
    },
}

impl std::fmt::Display for ArgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArgError::Duplicate(k) => write!(f, "option --{k} given more than once"),
            ArgError::UnexpectedPositional(v) => write!(f, "unexpected argument {v:?}"),
            ArgError::Missing(k) => write!(f, "missing required option --{k}"),
            ArgError::Unread(k) => write!(f, "option --{k} is not read by this command"),
            ArgError::Invalid {
                key,
                value,
                expected,
            } => {
                write!(f, "--{key} expects {expected}, got {value:?}")
            }
        }
    }
}

impl std::error::Error for ArgError {}

impl Args {
    /// Parses an iterator of raw arguments (without the program name).
    ///
    /// # Errors
    ///
    /// Returns [`ArgError`] on duplicate options or stray positionals.
    pub fn parse<I: IntoIterator<Item = String>>(raw: I) -> Result<Self, ArgError> {
        let mut args = Args::default();
        let mut iter = raw.into_iter().peekable();
        if let Some(first) = iter.peek() {
            if !first.starts_with("--") {
                args.command = iter.next();
            }
        }
        while let Some(token) = iter.next() {
            if let Some(key) = token.strip_prefix("--") {
                let value = match iter.peek() {
                    Some(v) if !v.starts_with("--") => iter.next().expect("peeked"),
                    _ => "true".to_string(),
                };
                if args.options.insert(key.to_string(), value).is_some() {
                    return Err(ArgError::Duplicate(key.to_string()));
                }
            } else {
                return Err(ArgError::UnexpectedPositional(token));
            }
        }
        Ok(args)
    }

    /// Looks `key` up and records that the command read it.
    fn get(&self, key: &str) -> Option<&String> {
        self.read.borrow_mut().insert(key.to_string());
        self.options.get(key)
    }

    /// Fails naming the first option (in name order) that no getter has
    /// looked up. A command calls it once it has read every option it
    /// takes and before it does any work.
    ///
    /// # Errors
    ///
    /// Returns [`ArgError::Unread`] for an option the command did not
    /// read.
    pub fn reject_unread(&self) -> Result<(), ArgError> {
        let read = self.read.borrow();
        match self.options.keys().find(|key| !read.contains(*key)) {
            Some(key) => Err(ArgError::Unread(key.clone())),
            None => Ok(()),
        }
    }

    /// Optional string option.
    pub fn str_opt(&self, key: &str) -> Option<String> {
        self.get(key).cloned()
    }

    /// String option with a default.
    pub fn str_or(&self, key: &str, default: &str) -> String {
        self.str_opt(key).unwrap_or_else(|| default.to_string())
    }

    /// Required string option.
    ///
    /// # Errors
    ///
    /// Returns [`ArgError::Missing`] when absent.
    pub fn str_required(&self, key: &str) -> Result<String, ArgError> {
        self.str_opt(key)
            .ok_or_else(|| ArgError::Missing(key.to_string()))
    }

    /// Optional integer option.
    ///
    /// # Errors
    ///
    /// Returns [`ArgError::Invalid`] when present but unparsable.
    pub fn u64_opt(&self, key: &str) -> Result<Option<u64>, ArgError> {
        self.get(key)
            .map(|v| {
                v.parse().map_err(|_| ArgError::Invalid {
                    key: key.to_string(),
                    value: v.clone(),
                    expected: "an integer".to_string(),
                })
            })
            .transpose()
    }

    /// Integer option with a default.
    ///
    /// # Errors
    ///
    /// Returns [`ArgError::Invalid`] when present but unparsable.
    pub fn u64_or(&self, key: &str, default: u64) -> Result<u64, ArgError> {
        Ok(self.u64_opt(key)?.unwrap_or(default))
    }

    /// Integer option with a default, parsed straight into the type it
    /// is used as and required to lie in `range`.
    ///
    /// # Errors
    ///
    /// Returns [`ArgError::Invalid`] when present but unparsable, too
    /// large for `T`, or outside `range`.
    pub fn int_in<T>(&self, key: &str, default: T, range: RangeInclusive<T>) -> Result<T, ArgError>
    where
        T: FromStr + PartialOrd + Display,
    {
        let Some(v) = self.get(key) else {
            return Ok(default);
        };
        match v.parse() {
            Ok(n) if range.contains(&n) => Ok(n),
            _ => Err(ArgError::Invalid {
                key: key.to_string(),
                value: v.clone(),
                expected: format!("an integer from {} to {}", range.start(), range.end()),
            }),
        }
    }

    /// Boolean flag (present without value, or `--key true/false`).
    ///
    /// # Errors
    ///
    /// Returns [`ArgError::Invalid`] when present but not a boolean.
    pub fn flag(&self, key: &str) -> Result<bool, ArgError> {
        match self.get(key) {
            None => Ok(false),
            Some(v) => v.parse().map_err(|_| ArgError::Invalid {
                key: key.to_string(),
                value: v.clone(),
                expected: "true or false".to_string(),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(tokens: &[&str]) -> Result<Args, ArgError> {
        Args::parse(tokens.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_command_and_options() {
        let args = parse(&["simulate", "--seed", "7", "--runs", "10"]).unwrap();
        assert_eq!(args.command.as_deref(), Some("simulate"));
        assert_eq!(args.u64_or("seed", 0).unwrap(), 7);
        assert_eq!(args.u64_or("runs", 0).unwrap(), 10);
        assert_eq!(args.u64_or("absent", 42).unwrap(), 42);
    }

    #[test]
    fn bare_flag_is_true() {
        let args = parse(&["simulate", "--verbose"]).unwrap();
        assert!(args.flag("verbose").unwrap());
        assert!(!args.flag("quiet").unwrap());
    }

    #[test]
    fn no_command_is_allowed() {
        let args = parse(&["--help"]).unwrap();
        assert_eq!(args.command, None);
        assert!(args.flag("help").unwrap());
    }

    #[test]
    fn duplicate_option_rejected() {
        assert_eq!(
            parse(&["x", "--a", "1", "--a", "2"]),
            Err(ArgError::Duplicate("a".into()))
        );
    }

    #[test]
    fn stray_positional_rejected() {
        assert!(matches!(
            parse(&["x", "--a", "1", "stray"]),
            // "stray" is consumed as --a's... no: --a takes "1", then "stray"
            // is a stray positional.
            Err(ArgError::UnexpectedPositional(_))
        ));
    }

    #[test]
    fn invalid_integer_reported() {
        let args = parse(&["x", "--n", "abc", "--m", "24", "--w", "256", "--ok", "23"]).unwrap();
        assert!(matches!(args.u64_or("n", 0), Err(ArgError::Invalid { .. })));
        assert_eq!(
            args.int_in("m", 1u8, 1..=23),
            Err(ArgError::Invalid {
                key: "m".into(),
                value: "24".into(),
                expected: "an integer from 1 to 23".into(),
            })
        );
        assert!(matches!(
            args.int_in("w", 1u8, 0..=u8::MAX),
            Err(ArgError::Invalid { .. })
        ));
        assert_eq!(args.int_in("ok", 1u8, 1..=23), Ok(23));
        assert_eq!(args.int_in("absent", 7u8, 1..=23), Ok(7));
    }

    #[test]
    fn required_string() {
        let args = parse(&["x", "--path", "/tmp/t.csv"]).unwrap();
        assert_eq!(args.str_required("path").unwrap(), "/tmp/t.csv");
        assert_eq!(
            args.str_required("nope"),
            Err(ArgError::Missing("nope".into()))
        );
    }

    #[test]
    fn options_no_getter_read_are_rejected() {
        let args = parse(&["x", "--seed", "7", "--bogus", "1", "--verbose"]).unwrap();
        assert_eq!(args.u64_or("seed", 0), Ok(7));
        assert!(!args.flag("quiet").unwrap());
        assert_eq!(args.reject_unread(), Err(ArgError::Unread("bogus".into())));
        assert_eq!(args.str_opt("bogus").as_deref(), Some("1"));
        assert_eq!(
            args.reject_unread(),
            Err(ArgError::Unread("verbose".into()))
        );
        assert!(args.flag("verbose").unwrap());
        assert_eq!(args.reject_unread(), Ok(()));
    }

    #[test]
    fn display_messages_are_concise() {
        assert_eq!(
            ArgError::Missing("seed".into()).to_string(),
            "missing required option --seed"
        );
    }
}
