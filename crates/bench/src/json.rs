//! A ~80-line JSON value builder for the machine-readable matrix artifact
//! (`BENCH_all.json`). The container has no serde, and the bench results are
//! flat records — hand-rolled rendering with correct string escaping and
//! stable key order is all that's needed.

/// A JSON value.
#[derive(Clone, Debug)]
pub enum Json {
    /// `null` (also produced by non-finite floats).
    Null,
    /// A boolean.
    Bool(bool),
    /// An integer (rendered without a decimal point).
    Int(i64),
    /// A float, rendered with up to 4 significant decimals.
    Num(f64),
    /// A string (escaped on render).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; key order is preserved as inserted.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Convenience constructor for objects.
    pub fn obj(fields: Vec<(&str, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Renders with 2-space indentation and a trailing newline, suitable for
    /// committing as a reviewable artifact.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => out.push_str(&i.to_string()),
            Json::Num(f) => {
                if f.is_finite() {
                    // Up to 4 decimals, trailing zeros trimmed (but keep one
                    // digit so the value still parses as a number).
                    let s = format!("{f:.4}");
                    let s = s.trim_end_matches('0');
                    let s = s.strip_suffix('.').map(|p| format!("{p}.0")).unwrap_or_else(|| s.to_string());
                    out.push_str(&s);
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => {
                out.push('"');
                for c in s.chars() {
                    match c {
                        '"' => out.push_str("\\\""),
                        '\\' => out.push_str("\\\\"),
                        '\n' => out.push_str("\\n"),
                        '\t' => out.push_str("\\t"),
                        '\r' => out.push_str("\\r"),
                        c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                        c => out.push(c),
                    }
                }
                out.push('"');
            }
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    indent(out, depth + 1);
                    item.write(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push(']');
            }
            Json::Obj(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    indent(out, depth + 1);
                    Json::Str(k.clone()).write(out, depth + 1);
                    out.push_str(": ");
                    v.write(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push('}');
            }
        }
    }
}

fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_flat_types() {
        assert_eq!(Json::Null.render(), "null\n");
        assert_eq!(Json::Bool(true).render(), "true\n");
        assert_eq!(Json::Int(-42).render(), "-42\n");
        assert_eq!(Json::Num(1.5).render(), "1.5\n");
        assert_eq!(Json::Num(3.0).render(), "3.0\n");
        assert_eq!(Json::Num(0.12345).render(), "0.1235\n"); // 4 decimals
        assert_eq!(Json::Num(f64::NAN).render(), "null\n");
        assert_eq!(Json::Str("a\"b\\c\nd".into()).render(), "\"a\\\"b\\\\c\\nd\"\n");
    }

    #[test]
    fn renders_nested_structure() {
        let v = Json::obj(vec![
            ("name", Json::Str("IT".into())),
            ("mbs", Json::Arr(vec![Json::Num(1.25), Json::Int(2)])),
            ("empty", Json::Arr(vec![])),
        ]);
        let text = v.render();
        assert!(text.contains("\"name\": \"IT\""), "{text}");
        assert!(text.contains("\"mbs\": [\n    1.25,\n    2\n  ]"), "{text}");
        assert!(text.contains("\"empty\": []"), "{text}");
        assert!(text.starts_with("{\n") && text.ends_with("}\n"), "{text}");
    }

    #[test]
    fn control_chars_are_escaped() {
        let text = Json::Str("\u{1}".into()).render();
        assert_eq!(text, "\"\\u0001\"\n");
    }
}
