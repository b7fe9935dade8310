//! The two JSON scalar renderers every hand-rolled JSON line in the
//! workspace shares (there is no serde in the dependency tree).

use std::fmt::Write as _;

/// Renders an `f64` as JSON (JSON has no NaN/Infinity; those become
/// strings so a log line never goes unparseable).
pub fn json_f64(v: f64) -> String {
    if v.is_finite() {
        // Trim trailing noise: integers render without a fraction.
        if v.fract() == 0.0 && v.abs() < 1e15 {
            format!("{}", v as i64)
        } else {
            format!("{v:.6}")
        }
    } else {
        format!("\"{v}\"")
    }
}

/// Renders a string as a quoted JSON value, escaping quotes, backslashes
/// and control characters.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_and_numbers() {
        assert_eq!(json_str("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_str("\u{1}"), "\"\\u0001\"");
        assert_eq!(json_f64(2.0), "2");
        assert_eq!(json_f64(0.25), "0.250000");
        assert_eq!(json_f64(f64::INFINITY), "\"inf\"");
    }
}
