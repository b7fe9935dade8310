//! The `foces` command line is parsed against one flag table per verb
//! (`foces_cli::commands::VERBS`). These tests only parse — no scenario
//! is loaded or run — so they cover every rejection, the help text and
//! every `foces` invocation the docs and CI show in about a second.

use foces_cli::args::{help, verb_help, ArgError, Args};
use foces_cli::commands::{parse, VERBS};

fn argv(line: &str) -> Vec<String> {
    line.split_whitespace().map(String::from).collect()
}

fn parse_line(line: &str) -> Result<Args, ArgError> {
    parse(&argv(line))
}

fn rejected(line: &str) -> String {
    match parse_line(line) {
        Ok(_) => panic!("`foces {line}` parsed, expected a rejection"),
        Err(e) => e.0,
    }
}

/// Asserts the error names the problem and ends with the verb's usage.
fn assert_rejects(line: &str, expect: &str) {
    let err = rejected(line);
    assert!(
        err.contains(expect),
        "`foces {line}`: {err:?} lacks {expect:?}"
    );
    let verb = line.split_whitespace().next().unwrap();
    let usage = format!("usage: foces {verb}");
    assert!(
        err.contains(&usage),
        "`foces {line}`: {err:?} lacks {usage:?}"
    );
}

#[test]
fn unknown_flags_are_rejected_with_a_nearest_match_hint() {
    assert_rejects("detect s.foces --modfy 1", "did you mean --modify?");
    assert_rejects("run s.foces --backned sparse", "did you mean --backend?");
    assert_rejects("run s.foces --threshhold 9", "did you mean --threshold?");
    assert_rejects("stream s.foces --adaptiv", "did you mean --adaptive?");
    // A flag of other verbs names them instead.
    assert_rejects(
        "detect s.foces --epochs 5",
        "--epochs is a flag of run, cluster, redteam",
    );
    // `=value` spelling is rejected the same way.
    assert_rejects("audit s.foces --jsn=1", "did you mean --json?");
}

#[test]
fn repeats_extra_positionals_and_malformed_values_are_rejected() {
    assert_rejects("detect s.foces --seed 1 --seed 2", "--seed is given twice");
    assert_rejects("detect s.foces --seed=1 --seed 2", "--seed is given twice");
    assert_rejects(
        "topo s.foces extra.foces",
        "unexpected argument \"extra.foces\"",
    );
    assert_rejects("scale extra", "unexpected argument \"extra\"");
    assert_rejects("detect s.foces --loss", "--loss needs a value");
    assert_rejects(
        "detect s.foces --sliced=yes",
        "--sliced does not take a value",
    );
    // A value is read verbatim at parse time and checked when the verb
    // reads it as a number.
    let args = parse_line("detect s.foces --seed abc").unwrap();
    let err = args.num("seed", 0u64).unwrap_err().0;
    assert!(err.contains("--seed: cannot parse \"abc\""), "{err}");
    assert!(err.contains("usage: foces detect"), "{err}");
    // Switches may repeat: they carry no value to disagree on.
    assert!(parse_line("audit s.foces --json --json").is_ok());
}

#[test]
fn a_flag_before_the_verb_or_an_unknown_verb_is_rejected() {
    let err = rejected("--seed 1 detect s.foces");
    assert!(err.contains("--seed comes before the verb"), "{err}");
    let err = rejected("detcet s.foces");
    assert!(err.contains("unknown command \"detcet\""), "{err}");
    assert!(
        err.contains("USAGE:"),
        "the unknown-verb error carries the help: {err}"
    );
}

/// Every declared partner pair of `verb` is rejected alone and accepted
/// with its partner; returns the pairs so callers can pin them.
fn check_needs(verb: &str) -> Vec<(&'static str, &'static str)> {
    let v = VERBS.iter().find(|v| v.name == verb).unwrap();
    let value = |name: &str| match v.flag_specs().find(|(n, _)| *n == name) {
        Some((_, Some(_))) => format!("--{name} 1"),
        Some((_, None)) => format!("--{name}"),
        None => panic!("{verb} needs undeclared --{name}"),
    };
    for &(flag, partner) in v.needs {
        let scenario = if v.positionals.is_empty() {
            ""
        } else {
            "s.foces"
        };
        let alone = format!("{verb} {scenario} {}", value(flag));
        assert_rejects(&alone, &format!("--{flag} needs --{partner}"));
        // The partner may itself need a partner (--confess-at → --fake-at
        // → --liars): supply the whole chain.
        let mut line = format!("{alone} {}", value(partner));
        let mut last = partner;
        while let Some(&(_, next)) = v.needs.iter().find(|(f, _)| *f == last) {
            line = format!("{line} {}", value(next));
            last = next;
        }
        parse_line(&line).unwrap_or_else(|e| panic!("`foces {line}`: {e}"));
    }
    v.needs.to_vec()
}

#[test]
fn run_flags_that_act_only_with_a_partner_need_it() {
    let needs = check_needs("run");
    for pair in [
        ("offline-from", "offline"),
        ("offline-to", "offline"),
        ("repair-at", "attack-at"),
        ("confess-at", "fake-at"),
    ] {
        assert!(needs.contains(&pair), "{pair:?}");
    }
}

#[test]
fn stream_flags_that_act_only_with_a_partner_need_it() {
    let needs = check_needs("stream");
    for pair in [
        ("poll-max-ms", "adaptive"),
        ("fake-at", "liars"),
        ("confess-at", "liars"),
    ] {
        assert!(needs.contains(&pair), "{pair:?}");
    }
}

#[test]
fn cluster_flags_that_act_only_with_a_partner_need_it() {
    let needs = check_needs("cluster");
    for pair in [("kill-at", "kill-shard"), ("heal-at", "kill-shard")] {
        assert!(needs.contains(&pair), "{pair:?}");
    }
}

#[test]
fn interleave_and_scale_flags_that_act_only_with_a_partner_need_it() {
    assert!(check_needs("interleave").contains(&("seed", "schedules")));
    assert!(check_needs("scale").contains(&("ceiling", "full")));
}

#[test]
fn space_and_equals_forms_parse_alike_for_every_flag_of_every_verb() {
    for verb in VERBS {
        // Two passes, each leaving out one side of every conflicting pair
        // (and whatever needs a flag left out), so every flag is parsed
        // next to all flags it may go with.
        for side in [0, 1] {
            let mut left_out: Vec<&str> = verb
                .conflicts
                .iter()
                .map(|&(a, b)| if side == 0 { a } else { b })
                .collect();
            while let Some(&(flag, _)) = verb
                .needs
                .iter()
                .find(|(f, p)| left_out.contains(p) && !left_out.contains(f))
            {
                left_out.push(flag);
            }
            let flags: Vec<_> = verb
                .flag_specs()
                .filter(|(n, _)| !left_out.contains(n))
                .collect();
            let positionals = verb.positionals.split_whitespace().map(|_| "p");
            let mut spaced: Vec<String> = std::iter::once(verb.name)
                .chain(positionals)
                .map(String::from)
                .collect();
            let mut equals = spaced.clone();
            for &(name, meta) in &flags {
                match meta {
                    Some(_) => {
                        spaced.extend([format!("--{name}"), format!("v-{name}")]);
                        equals.push(format!("--{name}=v-{name}"));
                    }
                    None => {
                        spaced.push(format!("--{name}"));
                        equals.push(format!("--{name}"));
                    }
                }
            }
            let a = parse(&spaced).unwrap_or_else(|e| panic!("{spaced:?}: {e}"));
            let b = parse(&equals).unwrap_or_else(|e| panic!("{equals:?}: {e}"));
            for &(name, meta) in &flags {
                match meta {
                    Some(_) => {
                        let expect = format!("v-{name}");
                        assert_eq!(a.opt(name), Some(expect.as_str()), "{} --{name}", verb.name);
                        assert_eq!(b.opt(name), a.opt(name), "{} --{name}", verb.name);
                    }
                    None => assert!(a.flag(name) && b.flag(name), "{} --{name}", verb.name),
                }
            }
            for i in 0..verb.positionals.split_whitespace().count() {
                assert_eq!(a.positional(i), Some("p"));
                assert_eq!(b.positional(i), Some("p"));
            }
        }
    }
}

/// Flags one of which the verb would silently ignore under the other are
/// rejected together, accepted apart, and printed in the verb's help.
#[test]
fn interleave_flags_the_other_would_override_conflict() {
    let v = VERBS.iter().find(|v| v.name == "interleave").unwrap();
    for pair in [("shards", "no-fanout"), ("uniform", "schedules")] {
        assert!(v.conflicts.contains(&pair), "{pair:?}");
    }
    assert_rejects(
        "interleave s.foces --shards 3 --no-fanout",
        "--shards conflicts with --no-fanout",
    );
    assert_rejects(
        "interleave s.foces --uniform --schedules=4",
        "--uniform conflicts with --schedules",
    );
    for line in [
        "interleave s.foces --shards 3",
        "interleave s.foces --no-fanout --schedules 4 --seed 2",
        "interleave s.foces --uniform",
    ] {
        parse_line(line).unwrap_or_else(|e| panic!("`foces {line}`: {e}"));
    }
    let entry = verb_help(VERBS, "interleave").unwrap();
    assert!(entry.starts_with("  foces interleave"), "{entry}");
    assert!(
        entry.contains("--shards conflicts with --no-fanout"),
        "{entry}"
    );
    assert!(
        entry.contains("--uniform conflicts with --schedules"),
        "{entry}"
    );
    // Every verb's relations print in the full help, too.
    let text = help(VERBS);
    for verb in VERBS {
        for (a, b) in verb.conflicts {
            assert!(text.contains(&format!("--{a} conflicts with --{b}")));
        }
    }
}

#[test]
fn help_lists_every_declared_flag_of_every_verb() {
    let text = help(VERBS);
    assert_eq!(
        parse(&[]).unwrap().verb().name,
        "help",
        "a bare `foces` is help"
    );
    // Each verb's block runs from its `  foces NAME` line to the next one.
    let mut pairs = 0;
    for verb in VERBS {
        let head = format!("\n  foces {}", verb.name);
        let start = text
            .find(&format!("{head} "))
            .or_else(|| text.find(&format!("{head}\n")));
        let start = start.unwrap_or_else(|| panic!("help lacks {head:?}"));
        let block = &text[start + 1..];
        let block = &block[..block.find("\n  foces ").unwrap_or(block.len())];
        for (name, meta) in verb.flag_specs() {
            let shown = match meta {
                Some(meta) => format!("[--{name} {meta}]"),
                None => format!("[--{name}]"),
            };
            assert!(
                block.contains(&shown),
                "help for {} lacks {shown}",
                verb.name
            );
            pairs += 1;
        }
        for word in verb.about.split_whitespace() {
            assert!(
                block.contains(word),
                "help for {} lacks its about text",
                verb.name
            );
        }
    }
    // The flag set of today's verbs, pinned: adding, removing or renaming
    // a flag is a deliberate change to this count.
    let counts: Vec<(&str, usize)> = VERBS
        .iter()
        .map(|v| (v.name, v.flag_specs().count()))
        .filter(|&(_, n)| n > 0)
        .collect();
    assert_eq!(
        counts,
        [
            ("detect", 5),
            ("monitor", 5),
            ("run", 32),
            ("stream", 32),
            ("cluster", 17),
            ("redteam", 9),
            ("scale", 6),
            ("interleave", 12),
            ("audit", 2),
            ("coverage", 3),
            ("harden", 2),
        ]
    );
    assert_eq!(pairs, 125);
}

// ---------------------------------------------------------------------------
// The docs cannot drift from the parser.

/// The docs and CI files whose `foces` command lines must parse.
const DOC_FILES: &[&str] = &[
    "README.md",
    "DESIGN.md",
    "EXPERIMENTS.md",
    ".github/workflows/ci.yml",
    ".claude/skills/verify/SKILL.md",
];

/// The shell comment that marks a command line shown to be rejected.
const REJECTED: &str = "# rejected:";

/// Shell command lines in a markdown file: fenced blocks (with `\`
/// continuations joined) plus inline code spans, each with its line number.
fn markdown_snippets(text: &str) -> Vec<(usize, String)> {
    let mut out = Vec::new();
    let mut fenced = false;
    let mut prose: Vec<(usize, &str)> = Vec::new();
    let flush = |prose: &mut Vec<(usize, &str)>, out: &mut Vec<(usize, String)>| {
        if let Some(&(line, _)) = prose.first() {
            let joined: Vec<&str> = prose.iter().map(|&(_, l)| l).collect();
            let joined = joined.join(" ");
            let spans = joined.split('`').skip(1).step_by(2);
            out.extend(spans.map(|span| (line, span.to_string())));
        }
        prose.clear();
    };
    let lines: Vec<&str> = text.lines().collect();
    for (i, &line) in lines.iter().enumerate() {
        if line.trim_start().starts_with("```") {
            flush(&mut prose, &mut out);
            fenced = !fenced;
        } else if fenced {
            out.push((i + 1, line.to_string()));
        } else if line.trim().is_empty() {
            flush(&mut prose, &mut out);
        } else {
            prose.push((i + 1, line));
        }
    }
    flush(&mut prose, &mut out);
    join_continuations(out)
}

/// The commands of a workflow's `run:` keys, single-line or `|` blocks.
fn workflow_snippets(text: &str) -> Vec<(usize, String)> {
    let lines: Vec<&str> = text.lines().collect();
    let indent = |l: &str| l.len() - l.trim_start().len();
    let mut out = Vec::new();
    for (i, line) in lines.iter().enumerate() {
        let key = line.trim_start().trim_start_matches("- ");
        let Some(cmd) = key.strip_prefix("run:") else {
            continue;
        };
        if cmd.trim() != "|" {
            out.push((i + 1, cmd.to_string()));
            continue;
        }
        let body = lines[i + 1..]
            .iter()
            .take_while(|l| l.trim().is_empty() || indent(l) > indent(line));
        out.extend(body.enumerate().map(|(j, l)| (i + 2 + j, l.to_string())));
    }
    join_continuations(out)
}

/// Joins lines ending in `\` with the lines that continue them.
fn join_continuations(lines: Vec<(usize, String)>) -> Vec<(usize, String)> {
    let mut out: Vec<(usize, String)> = Vec::new();
    let mut open = false;
    for (n, line) in lines {
        let (body, continues) = match line.trim_end().strip_suffix('\\') {
            Some(body) => (body.to_string(), true),
            None => (line, false),
        };
        match out.last_mut() {
            Some(last) if open => last.1 = format!("{} {body}", last.1),
            _ => out.push((n, body)),
        }
        open = continues;
    }
    out
}

/// The argument vectors after `foces` (or `-p foces-cli --`) in one shell
/// line, up to the next pipe, redirect, separator or comment. `[` and `]`
/// are stripped so optional-flag synopses parse too.
fn invocations(line: &str) -> Vec<Vec<String>> {
    let tokens: Vec<&str> = line.split_whitespace().collect();
    let mut out = Vec::new();
    for (i, &t) in tokens.iter().enumerate() {
        if t.starts_with('#') {
            break;
        }
        // `-p foces` names the package; a verb is a lowercase word, which
        // skips prose such as crate tables ("foces (crates/core) …").
        let start = match t {
            "foces" if i > 0 && tokens[i - 1] == "-p" => continue,
            "foces-cli" if tokens.get(i + 1) == Some(&"--") => i + 2,
            _ if t == "foces" || t.ends_with("/foces") => i + 1,
            _ => continue,
        };
        let is_word = |w: &&str| w.bytes().all(|b| b.is_ascii_lowercase());
        if !tokens.get(start).is_some_and(is_word) {
            continue;
        }
        let mut args = Vec::new();
        for &tok in &tokens[start.min(tokens.len())..] {
            if tok.starts_with(['|', ';', '>', '<', '&', '#', ')']) || tok.starts_with("2>") {
                break;
            }
            let arg = tok.trim_end_matches(';').replace(['[', ']'], "");
            if !arg.is_empty() {
                args.push(arg);
            }
            if tok.ends_with(';') {
                break;
            }
        }
        if !args.is_empty() {
            out.push(args);
        }
    }
    out
}

#[test]
fn every_foces_invocation_in_the_docs_and_ci_parses() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut checked = 0;
    let mut failures = Vec::new();
    for file in DOC_FILES {
        let text = std::fs::read_to_string(root.join(file)).unwrap();
        let snippets = if file.ends_with(".yml") {
            workflow_snippets(&text)
        } else {
            markdown_snippets(&text)
        };
        for (line, snippet) in snippets {
            // A line that shows a rejection on purpose says so, and must
            // then be rejected.
            let must_reject = snippet.contains(REJECTED);
            for args in invocations(&snippet) {
                checked += 1;
                let problem = match parse(&args) {
                    Err(e) if !must_reject => e.0.lines().next().unwrap_or_default().to_string(),
                    Ok(_) if must_reject => format!("parsed despite `{REJECTED}`"),
                    _ => continue,
                };
                failures.push(format!(
                    "{file}:{line}: foces {}: {problem}",
                    args.join(" ")
                ));
            }
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
    assert!(
        checked >= 90,
        "only {checked} invocations found: the extractor is broken"
    );
}

#[test]
fn the_doc_extractor_handles_continuations_pipes_and_brackets() {
    let md = "```sh\nfoces run s.foces \\\n    --epochs 3; echo done\n```\n\
              Run `foces coverage S [--shards K]\n[--json]` for a report.\n";
    let lines: Vec<Vec<Vec<String>>> = markdown_snippets(md)
        .iter()
        .map(|(_, l)| invocations(l))
        .collect();
    assert_eq!(lines[0], vec![argv("run s.foces --epochs 3")]);
    assert_eq!(lines[1], vec![argv("coverage S --shards K --json")]);
    let yml = "      - name: x\n        run: |\n          ./target/release/foces audit a \\\n            --json | tee x\n        run: cargo run -p foces-cli -- scale --out b.json\n";
    let cmds: Vec<Vec<String>> = workflow_snippets(yml)
        .iter()
        .flat_map(|(_, l)| invocations(l))
        .collect();
    assert_eq!(
        cmds,
        vec![argv("audit a --json"), argv("scale --out b.json")]
    );
}
