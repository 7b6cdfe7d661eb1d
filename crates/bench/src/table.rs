//! Plain-text experiment tables, printable and JSON-serializable.

use std::fmt;

/// One experiment's output: a titled table plus free-form notes.
#[derive(Debug, Clone)]
pub struct Experiment {
    /// Short id, e.g. `"E4"`.
    pub id: String,
    /// Human title.
    pub title: String,
    /// What the paper claims / what shape to expect.
    pub claim: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Table rows.
    pub rows: Vec<Vec<String>>,
    /// Observations appended below the table.
    pub notes: Vec<String>,
    /// Whether the measured shape matches the paper's claim.
    pub verdict: bool,
}

impl Experiment {
    /// Starts an experiment table.
    pub fn new(id: &str, title: &str, claim: &str, headers: &[&str]) -> Self {
        Experiment {
            id: id.to_owned(),
            title: title.to_owned(),
            claim: claim.to_owned(),
            headers: headers.iter().map(|s| (*s).to_owned()).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
            verdict: true,
        }
    }

    /// Appends one row (stringifies each cell).
    pub fn row<I, S>(&mut self, cells: I)
    where
        I: IntoIterator<Item = S>,
        S: ToString,
    {
        let row: Vec<String> = cells.into_iter().map(|c| c.to_string()).collect();
        assert_eq!(row.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(row);
    }

    /// Appends an observation note.
    pub fn note(&mut self, s: impl Into<String>) {
        self.notes.push(s.into());
    }

    /// Records a claim-check: all must hold for the verdict to stay true.
    pub fn check(&mut self, ok: bool, what: impl Into<String>) {
        let what = what.into();
        if ok {
            self.notes.push(format!("✔ {what}"));
        } else {
            self.notes.push(format!("✘ FAILED: {what}"));
            self.verdict = false;
        }
    }

    /// Serializes to a JSON object (hand-rolled — the offline build has
    /// no serde; field layout matches the former derive output).
    fn to_json(&self) -> String {
        let mut out = String::from("{");
        json_field(&mut out, "id", &json_string(&self.id));
        json_field(&mut out, "title", &json_string(&self.title));
        json_field(&mut out, "claim", &json_string(&self.claim));
        json_field(&mut out, "headers", &json_string_array(&self.headers));
        let rows: Vec<String> = self.rows.iter().map(|r| json_string_array(r)).collect();
        json_field(&mut out, "rows", &format!("[{}]", rows.join(",")));
        json_field(&mut out, "notes", &json_string_array(&self.notes));
        out.push_str(&format!("\"verdict\":{}", self.verdict));
        out.push('}');
        out
    }
}

fn json_field(out: &mut String, key: &str, value: &str) {
    out.push_str(&format!("\"{key}\":{value},"));
}

fn json_string_array(items: &[String]) -> String {
    let parts: Vec<String> = items.iter().map(|s| json_string(s)).collect();
    format!("[{}]", parts.join(","))
}

/// Escapes `s` as a JSON string literal.
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Serializes a slice of experiments to a pretty-printed JSON array (one
/// experiment object per line).
pub fn experiments_to_json(experiments: &[Experiment]) -> String {
    let parts: Vec<String> = experiments
        .iter()
        .map(|e| format!("  {}", e.to_json()))
        .collect();
    format!("[\n{}\n]", parts.join(",\n"))
}

impl fmt::Display for Experiment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "== {}: {} ==", self.id, self.title)?;
        writeln!(f, "claim: {}", self.claim)?;
        // Column widths.
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.chars().count()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.chars().count());
            }
        }
        let line = |f: &mut fmt::Formatter<'_>, cells: &[String]| -> fmt::Result {
            write!(f, "|")?;
            for (i, c) in cells.iter().enumerate() {
                write!(f, " {:width$} |", c, width = widths[i])?;
            }
            writeln!(f)
        };
        line(f, &self.headers)?;
        let total: usize = widths.iter().map(|w| w + 3).sum::<usize>() + 1;
        writeln!(f, "{}", "-".repeat(total))?;
        for row in &self.rows {
            line(f, row)?;
        }
        for n in &self.notes {
            writeln!(f, "  {n}")?;
        }
        writeln!(
            f,
            "verdict: {}",
            if self.verdict {
                "MATCHES PAPER"
            } else {
                "MISMATCH"
            }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_round_trip() {
        let mut e = Experiment::new("E0", "demo", "demo claim", &["a", "b"]);
        e.row(["x", "y"]);
        e.row([1.to_string(), 2.to_string()]);
        e.note("note");
        e.check(true, "good");
        let s = e.to_string();
        assert!(s.contains("E0"));
        assert!(s.contains("| x"));
        assert!(s.contains("✔ good"));
        assert!(s.contains("MATCHES PAPER"));
        assert!(e.verdict);
    }

    #[test]
    fn failed_check_flips_verdict() {
        let mut e = Experiment::new("E0", "demo", "c", &["a"]);
        e.check(false, "bad");
        assert!(!e.verdict);
        assert!(e.to_string().contains("MISMATCH"));
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn arity_checked() {
        let mut e = Experiment::new("E0", "demo", "c", &["a", "b"]);
        e.row(["only-one"]);
    }

    #[test]
    fn json_serializable() {
        let mut e = Experiment::new("E1", "t", "c", &["h"]);
        e.row(["v"]);
        let js = e.to_json();
        assert!(js.contains("\"id\":\"E1\""));
        assert!(js.contains("\"rows\":[[\"v\"]]"));
        assert!(js.contains("\"verdict\":true"));
    }

    #[test]
    fn json_escaping() {
        assert_eq!(json_string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        let arr = experiments_to_json(&[Experiment::new("E1", "t", "c", &[])]);
        assert!(arr.starts_with("[\n"));
        assert!(arr.ends_with("\n]"));
    }
}
