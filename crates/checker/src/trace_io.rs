//! Plain-text serialization of execution traces.
//!
//! Line format, one event per line, for archiving runs and replaying them
//! through the checker offline:
//!
//! ```text
//! I <issuer> <seq> <register>   # issue
//! A <issuer> <seq> <replica>    # apply
//! ```

use crate::trace::{Event, Trace, UpdateId};
use prcc_sharegraph::{RegisterId, ReplicaId};
use std::fmt::Write as _;

/// Serializes a trace to the line format.
pub fn to_text(trace: &Trace) -> String {
    let mut out = String::new();
    for ev in trace.events() {
        match *ev {
            Event::Issue { update, register } => {
                let _ = writeln!(
                    out,
                    "I {} {} {}",
                    update.issuer.raw(),
                    update.seq,
                    register.raw()
                );
            }
            Event::Apply { update, at } => {
                let _ = writeln!(out, "A {} {} {}", update.issuer.raw(), update.seq, at.raw());
            }
        }
    }
    out
}

/// Errors from [`from_text`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseTraceError {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ParseTraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseTraceError {}

/// Parses the line format back into a trace. Blank lines and `#` comments
/// are skipped.
///
/// # Errors
///
/// Returns [`ParseTraceError`] on malformed lines, duplicate issues, or
/// applies of unknown updates appearing before their issue.
pub fn from_text(text: &str) -> Result<Trace, ParseTraceError> {
    let mut trace = Trace::new();
    for (n, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let err = |message: String| ParseTraceError {
            line: n + 1,
            message,
        };
        let mut parts = line.split_whitespace();
        let kind = parts.next().ok_or_else(|| err("empty event".into()))?;
        let nums: Vec<u64> = parts
            .map(|p| p.parse::<u64>())
            .collect::<Result<_, _>>()
            .map_err(|e| err(format!("bad number: {e}")))?;
        if nums.len() != 3 {
            return Err(err(format!("expected 3 fields, got {}", nums.len())));
        }
        let id = |field: &str, n: u64| {
            u32::try_from(n).map_err(|_| err(format!("{field} id {n} exceeds u32::MAX")))
        };
        let update = UpdateId {
            issuer: ReplicaId::new(id("replica", nums[0])?),
            seq: nums[1],
        };
        match kind {
            "I" => {
                if trace.register_of(update).is_some() {
                    return Err(err(format!("duplicate issue of {update}")));
                }
                trace.record_issue_with_id(update, RegisterId::new(id("register", nums[2])?));
            }
            "A" => {
                if trace.register_of(update).is_none() {
                    return Err(err(format!("{update} applied before issue")));
                }
                trace.record_apply(update, ReplicaId::new(id("replica", nums[2])?));
            }
            other => return Err(err(format!("unknown event kind '{other}'"))),
        }
    }
    Ok(trace)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(i: u32) -> ReplicaId {
        ReplicaId::new(i)
    }
    fn x(i: u32) -> RegisterId {
        RegisterId::new(i)
    }

    #[test]
    fn round_trip() {
        let mut t = Trace::new();
        let a = t.record_issue(r(0), x(3));
        t.record_apply(a, r(1));
        let b = t.record_issue(r(1), x(4));
        t.record_apply(b, r(2));
        let text = to_text(&t);
        let back = from_text(&text).expect("parse");
        assert_eq!(back.events(), t.events());
        assert_eq!(back.register_of(a), Some(x(3)));
    }

    #[test]
    fn comments_and_blanks_skipped() {
        let text = "# header\n\nI 0 0 5  # inline comment\nA 0 0 1\n";
        let t = from_text(text).expect("parse");
        assert_eq!(t.events().len(), 2);
    }

    #[test]
    fn parse_errors() {
        assert!(from_text("Z 1 2 3").is_err());
        assert!(from_text("I 1 2").is_err());
        assert!(from_text("I a b c").is_err());
        assert!(from_text("A 0 0 1")
            .unwrap_err()
            .message
            .contains("before issue"));
        let dup = "I 0 0 1\nI 0 0 2";
        assert!(from_text(dup).unwrap_err().message.contains("duplicate"));
        let e = from_text("I 1 2").unwrap_err();
        assert_eq!(e.line, 1);
        assert!(e.to_string().contains("line 1"));
    }

    #[test]
    fn ids_above_u32_rejected() {
        let big = u64::from(u32::MAX) + 2;
        let e = from_text(&format!("I 0 0 1\nI {big} 0 0")).unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("replica id"), "{e}");
        let e = from_text(&format!("I 0 0 {big}")).unwrap_err();
        assert_eq!(e.line, 1);
        assert!(e.message.contains("register id"), "{e}");
        let e = from_text(&format!("I 0 0 1\nA 0 0 {big}")).unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("replica id"), "{e}");
        let max = u32::MAX;
        assert!(from_text(&format!("I {max} 0 {max}\nA {max} 0 {max}")).is_ok());
    }

    #[test]
    fn round_trip_preserves_checker_verdict() {
        use crate::consistency::check;
        use prcc_sharegraph::Placement;
        let p = Placement::builder(3).share(0, [0, 1, 2]).build();
        let mut t = Trace::new();
        let u1 = t.record_issue(r(0), x(0));
        t.record_apply(u1, r(1));
        let u2 = t.record_issue(r(1), x(0));
        t.record_apply(u2, r(2)); // safety violation: u1 not at r2
        t.record_apply(u1, r(2));
        t.record_apply(u2, r(0));
        let direct = check(&t, &p);
        let replayed = check(&from_text(&to_text(&t)).unwrap(), &p);
        assert_eq!(direct.violations, replayed.violations);
        assert!(!replayed.is_consistent());
    }
}
