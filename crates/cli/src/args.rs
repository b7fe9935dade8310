//! The `foces` argument parser. Each subcommand is one [`Verb`]
//! declaration of its positionals, its flags, which flag needs which
//! partner and which flags exclude each other. A command line is parsed
//! against exactly that declaration, and `foces help` is rendered from the
//! same declarations. Hand-rolled to keep
//! the dependency set at the approved offline list (no clap).

use std::collections::HashMap;
use std::fmt::{self, Write as _};
use std::str::FromStr;

/// Column at which help and usage text wraps.
const WIDTH: usize = 79;

/// One subcommand's declaration: the only place its flags exist.
#[derive(Debug)]
pub struct Verb {
    /// The subcommand name, as typed after `foces`.
    pub name: &'static str,
    /// Positional metavars, whitespace-separated (`<x>` required, `[x]`
    /// optional); their count is the most positionals the verb takes.
    pub positionals: &'static str,
    /// Flag specs. Each whitespace-separated token is `name=META` (the
    /// flag takes a value) or a bare `name` (a switch).
    pub flags: &'static [&'static str],
    /// `(flag, partner)`: `--flag` acts only together with `--partner`.
    pub needs: &'static [(&'static str, &'static str)],
    /// `(a, b)`: `--a` would be ignored under `--b`, so giving both is an
    /// error.
    pub conflicts: &'static [(&'static str, &'static str)],
    /// What the verb does, for `foces help`.
    pub about: &'static str,
}

impl Verb {
    /// Every declared flag as `(name, metavar)`; a switch has no metavar.
    pub fn flag_specs(&self) -> impl Iterator<Item = (&'static str, Option<&'static str>)> + '_ {
        self.flags
            .iter()
            .flat_map(|spec| spec.split_whitespace())
            .map(|token| match token.split_once('=') {
                Some((name, meta)) => (name, Some(meta)),
                None => (token, None),
            })
    }

    fn spec(&self, name: &str) -> Option<(&'static str, Option<&'static str>)> {
        self.flag_specs().find(|&(n, _)| n == name)
    }

    /// The synopsis `foces NAME POSITIONALS [--flag META] …`, wrapped:
    /// the first line starts with `first`, continuations with `rest`.
    fn usage(&self, first: &str, rest: &str) -> String {
        let head = format!("{first}foces {} {}", self.name, self.positionals);
        let flags = self.flag_specs().map(|(name, meta)| match meta {
            Some(meta) => format!("[--{name} {meta}]"),
            None => format!("[--{name}]"),
        });
        wrap(head.trim_end(), flags, rest)
    }

    fn error(&self, msg: impl fmt::Display) -> ArgError {
        ArgError(format!("{msg}\n{}", self.usage("usage: ", "    ")))
    }
}

/// Appends `words` to `head` separated by spaces, breaking lines before
/// [`WIDTH`] columns and starting each continuation with `indent`.
fn wrap(head: &str, words: impl IntoIterator<Item = impl AsRef<str>>, indent: &str) -> String {
    let mut out = head.to_string();
    let mut col = head.chars().count();
    for word in words {
        let word = word.as_ref();
        let len = word.chars().count();
        if col + 1 + len > WIDTH && col > indent.len() {
            let _ = write!(out, "\n{indent}{word}");
            col = indent.len() + len;
        } else {
            let _ = write!(out, " {word}");
            col += 1 + len;
        }
    }
    out
}

/// One verb's `foces help NAME` entry.
///
/// # Errors
///
/// Returns [`ArgError`] when `name` names no verb.
pub fn verb_help(verbs: &[Verb], name: &str) -> Result<String, ArgError> {
    verbs
        .iter()
        .find(|v| v.name == name)
        .map(entry)
        .ok_or_else(|| ArgError(format!("unknown command {name:?} (see `foces help`)")))
}

/// The full `foces help` text, rendered from `verbs`.
pub fn help(verbs: &[Verb]) -> String {
    let mut out = String::from(
        "foces — network-wide forwarding anomaly detection (FOCES, ICDCS 2018)\n\nUSAGE:\n",
    );
    for verb in verbs {
        out.push_str(&entry(verb));
    }
    out + "Flags go after the verb, as `--key value` or `--key=value`. A flag the verb\n\
           does not declare, a value flag given twice, a flag without its partner and an\n\
           extra positional are errors (exit 1), as are two flags that conflict. Scenario\n\
           files: see `foces scenario ring` for the format.\n"
}

/// One verb's help entry: usage, flag relations, and what it does.
fn entry(verb: &Verb) -> String {
    let mut out = format!("{}\n", verb.usage("  ", "      "));
    let needs = verb
        .needs
        .iter()
        .map(|(f, p)| format!("--{f} needs --{p};"));
    let conflicts = verb
        .conflicts
        .iter()
        .map(|(a, b)| format!("--{a} conflicts with --{b};"));
    let relations: Vec<String> = needs.chain(conflicts).collect();
    if !relations.is_empty() {
        let relations = wrap("     ", relations, "      ");
        let _ = writeln!(out, "{}", relations.trim_end_matches(';'));
    }
    let about = wrap("     ", verb.about.split_whitespace(), "      ");
    let _ = writeln!(out, "{about}\n");
    out
}

/// Edit distance between two strings.
fn distance(a: &str, b: &str) -> usize {
    let b: Vec<char> = b.chars().collect();
    let mut row: Vec<usize> = (0..=b.len()).collect();
    for (i, ca) in a.chars().enumerate() {
        let mut diag = row[0];
        row[0] = i + 1;
        for (j, &cb) in b.iter().enumerate() {
            let up = row[j + 1];
            row[j + 1] = (diag + usize::from(ca != cb)).min(row[j] + 1).min(up + 1);
            diag = up;
        }
    }
    row[b.len()]
}

/// The candidate nearest to `name`, if it is close enough to be a typo.
fn nearest<'a>(name: &str, candidates: impl Iterator<Item = &'a str>) -> Option<&'a str> {
    candidates
        .map(|c| (distance(name, c), c))
        .filter(|&(d, _)| d <= 2.max(name.len() / 3))
        .min_by_key(|&(d, _)| d)
        .map(|(_, c)| c)
}

/// Parsed command-line arguments for one verb.
#[derive(Debug, Clone)]
pub struct Args {
    verb: &'static Verb,
    positionals: Vec<String>,
    values: HashMap<&'static str, String>,
    switches: Vec<&'static str>,
}

/// An argument error (unknown flag, missing value, bad number, …).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArgError(pub String);

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ArgError {}

/// Parses a command line (without `argv[0]`) against `verbs`: the first
/// argument names the verb, and the rest must fit that verb's declaration.
/// An empty command line is `help`.
///
/// # Errors
///
/// Returns [`ArgError`] for a flag before the verb, an unknown verb, an
/// undeclared flag (with a nearest-match hint and the verbs declaring it),
/// a value flag given twice or without its value, `=value` on a switch,
/// an extra positional, a flag without its declared partner, or two
/// conflicting flags.
pub fn parse(verbs: &'static [Verb], raw: &[String]) -> Result<Args, ArgError> {
    let name = raw.first().map_or("help", String::as_str);
    if name.starts_with('-') {
        let msg = format!("{name} comes before the verb: foces <verb> [flags] (see `foces help`)");
        return Err(ArgError(msg));
    }
    let Some(verb) = verbs.iter().find(|v| v.name == name) else {
        let msg = format!("unknown command {name:?}\n\n{}", help(verbs));
        return Err(ArgError(msg));
    };
    let mut out = Args {
        verb,
        positionals: Vec::new(),
        values: HashMap::new(),
        switches: Vec::new(),
    };
    let max_positionals = verb.positionals.split_whitespace().count();
    let mut it = raw.iter().skip(1);
    while let Some(a) = it.next() {
        let Some(body) = a.strip_prefix("--") else {
            if out.positionals.len() == max_positionals {
                let msg = format!(
                    "unexpected argument {a:?}: foces {name} takes {max_positionals} positional(s)"
                );
                return Err(verb.error(msg));
            }
            out.positionals.push(a.clone());
            continue;
        };
        let (key, inline) = match body.split_once('=') {
            Some((k, v)) => (k, Some(v)),
            None => (body, None),
        };
        let Some((key, meta)) = verb.spec(key) else {
            return Err(verb.error(unknown_flag(verbs, verb, key)));
        };
        let value = match (meta, inline) {
            (None, None) => {
                out.switches.push(key);
                continue;
            }
            (None, Some(_)) => {
                return Err(verb.error(format_args!("--{key} does not take a value")))
            }
            (Some(_), Some(v)) => v.to_string(),
            (Some(_), None) => it
                .next()
                .cloned()
                .ok_or_else(|| verb.error(format_args!("--{key} needs a value")))?,
        };
        if out.values.insert(key, value).is_some() {
            return Err(verb.error(format_args!("--{key} is given twice")));
        }
    }
    for &(flag, partner) in verb.needs {
        if out.given(flag) && !out.given(partner) {
            return Err(verb.error(format_args!("--{flag} needs --{partner}")));
        }
    }
    for &(a, b) in verb.conflicts {
        if out.given(a) && out.given(b) {
            return Err(verb.error(format_args!("--{a} conflicts with --{b}")));
        }
    }
    Ok(out)
}

fn unknown_flag(verbs: &[Verb], verb: &Verb, name: &str) -> String {
    let mut msg = format!("foces {} has no flag --{name}", verb.name);
    if let Some(near) = nearest(name, verb.flag_specs().map(|(n, _)| n)) {
        let _ = write!(msg, "; did you mean --{near}?");
    }
    let owners: Vec<&str> = verbs
        .iter()
        .filter(|v| v.spec(name).is_some())
        .map(|v| v.name)
        .collect();
    if !owners.is_empty() {
        let _ = write!(msg, " (--{name} is a flag of {})", owners.join(", "));
    }
    msg
}

impl Args {
    /// The verb this command line was parsed against.
    pub fn verb(&self) -> &'static Verb {
        self.verb
    }

    /// The `i`-th positional argument after the verb.
    pub fn positional(&self, i: usize) -> Option<&str> {
        self.positionals.get(i).map(String::as_str)
    }

    fn given(&self, name: &str) -> bool {
        self.values.contains_key(name) || self.switches.contains(&name)
    }

    /// Panics unless the verb declares `--name`, as a value flag when
    /// `takes_value` and as a switch otherwise: reading an undeclared flag
    /// is a programming error, not a user error.
    fn declared(&self, name: &str, takes_value: bool) {
        let found = self.verb.spec(name).map(|(_, meta)| meta.is_some());
        assert!(
            found == Some(takes_value),
            "foces {} reads --{name}, which its declaration does not list as a {}",
            self.verb.name,
            if takes_value { "value flag" } else { "switch" }
        );
    }

    /// Whether the switch `--name` was given.
    pub fn flag(&self, name: &str) -> bool {
        self.declared(name, false);
        self.switches.contains(&name)
    }

    /// The value of `--name`, verbatim.
    pub fn opt(&self, name: &str) -> Option<&str> {
        self.declared(name, true);
        self.values.get(name).map(String::as_str)
    }

    /// The value of `--name` parsed as `T`, or `None` when it was not given.
    ///
    /// # Errors
    ///
    /// Returns [`ArgError`] if the value is present but unparsable.
    pub fn maybe<T: FromStr<Err: fmt::Display>>(&self, name: &str) -> Result<Option<T>, ArgError> {
        self.opt(name).map(|v| self.parse_one(name, v)).transpose()
    }

    /// The value of `--name` parsed as `T`, or `default` when not given.
    ///
    /// # Errors
    ///
    /// Returns [`ArgError`] if the value is present but unparsable.
    pub fn num<T: FromStr<Err: fmt::Display>>(
        &self,
        name: &str,
        default: T,
    ) -> Result<T, ArgError> {
        Ok(self.maybe(name)?.unwrap_or(default))
    }

    /// The comma-separated value of `--name` parsed item by item, or `None`
    /// when it was not given.
    ///
    /// # Errors
    ///
    /// Returns [`ArgError`] naming the first unparsable item.
    pub fn list<T: FromStr<Err: fmt::Display>>(
        &self,
        name: &str,
    ) -> Result<Option<Vec<T>>, ArgError> {
        let items = |csv: &str| {
            csv.split(',')
                .map(|t| self.parse_one(name, t.trim()))
                .collect()
        };
        self.opt(name).map(items).transpose()
    }

    fn parse_one<T: FromStr<Err: fmt::Display>>(&self, name: &str, v: &str) -> Result<T, ArgError> {
        let error = |e| {
            self.verb
                .error(format_args!("--{name}: cannot parse {v:?}: {e}"))
        };
        v.parse().map_err(error)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    static VERBS: &[Verb] = &[
        Verb {
            name: "detect",
            positionals: "<scenario>",
            flags: &["loss=P seed=N", "sliced"],
            needs: &[],
            conflicts: &[("seed", "sliced")],
            about: "one round",
        },
        Verb {
            name: "run",
            positionals: "<scenario>",
            flags: &["loss=P epochs=N expr=X empty=X offline=S offline-from=E"],
            needs: &[("offline-from", "offline")],
            conflicts: &[],
            about: "many rounds",
        },
    ];

    fn parse_str(s: &str) -> Result<Args, ArgError> {
        let raw: Vec<String> = s.split_whitespace().map(String::from).collect();
        parse(VERBS, &raw)
    }

    #[test]
    fn positionals_options_flags() {
        let a = parse_str("detect net.foces --loss 0.05 --sliced").unwrap();
        assert_eq!(a.verb().name, "detect");
        assert_eq!(a.positional(0), Some("net.foces"));
        assert_eq!(a.opt("loss"), Some("0.05"));
        assert!(a.flag("sliced"));
    }

    #[test]
    fn numeric_parsing_and_defaults() {
        let a = parse_str("detect --seed 42").unwrap();
        assert_eq!(a.num("seed", 0u64).unwrap(), 42);
        assert_eq!(a.maybe::<f64>("loss").unwrap(), None);
        let bad = parse_str("detect --seed abc").unwrap();
        assert!(bad.num("seed", 0u64).is_err());
    }

    #[test]
    fn equals_form_keeps_value_verbatim() {
        // Only the first '=' splits; empty values are legal.
        let a = parse_str("run --expr=a=b --empty= --epochs=30").unwrap();
        assert_eq!(a.opt("expr"), Some("a=b"));
        assert_eq!(a.opt("empty"), Some(""));
        assert_eq!(a.num("epochs", 0u64).unwrap(), 30);
    }

    #[test]
    fn rejections_end_with_the_usage_line() {
        for bad in [
            "detect --sliced=yes",
            "detect net.foces --loss",
            "detect --seed 1 --seed 2",
            "detect a.foces b.foces",
            "detect --lost 1",
            "run --offline-from 3",
            "detect --sliced --seed 1",
        ] {
            let err = parse_str(bad).unwrap_err();
            let last = err.0.lines().find(|l| l.starts_with("usage: foces"));
            assert!(last.is_some(), "{bad}: {err}");
        }
        assert!(parse_str("detect --lost 1")
            .unwrap_err()
            .0
            .contains("--loss?"));
    }

    #[test]
    fn conflicts_are_rejected_and_printed() {
        let err = parse_str("detect --seed 1 --sliced").unwrap_err();
        assert!(err.0.starts_with("--seed conflicts with --sliced"), "{err}");
        assert!(parse_str("detect --seed 1").is_ok());
        let entry = verb_help(VERBS, "detect").unwrap();
        assert!(entry.contains("--seed conflicts with --sliced"), "{entry}");
        assert!(!entry.contains("foces run"), "{entry}");
        assert!(verb_help(VERBS, "nope").is_err());
    }

    #[test]
    #[should_panic(expected = "does not list")]
    fn reading_an_undeclared_flag_panics() {
        let _ = parse_str("detect").unwrap().num("epochs", 0u64);
    }

    #[test]
    fn nearest_needs_a_close_match() {
        assert_eq!(
            nearest("backned", ["backend", "log"].into_iter()),
            Some("backend")
        );
        assert_eq!(nearest("epochs", ["loss", "seed"].into_iter()), None);
    }
}
