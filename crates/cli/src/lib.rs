//! The `foces` command-line tool as a library: [`args`] parses a command
//! line against the per-verb declarations in [`commands::VERBS`], and
//! [`commands`] runs the verbs. The binary's `main` only wires argv and
//! exit codes, so tests can parse and run every verb in-process.

pub mod args;
pub mod commands;
