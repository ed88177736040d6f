//! JSON for the committed `BENCH_*.json` reports: a minimal parser, and
//! the field-list machinery that writes, reads back and tables a report.
//!
//! The workspace is fully offline (no serde), and the reports are small and
//! machine-written, so a compact recursive-descent parser is all the
//! `checkjson` gate needs. A report type lists its members once, as a
//! [`Fields`] visitor handing out one [`Slot`] per key in report order;
//! [`write()`], [`read`] and [`table`] are loops over that visitor, so a key
//! is spelled in exactly one place.

use std::collections::BTreeMap;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (parsed as `f64`; the reports stay well inside the
    /// exact-integer range).
    Number(f64),
    /// A string (escape sequences decoded).
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object, with key order normalized.
    Object(BTreeMap<String, Value>),
}

impl Value {
    /// The value under `key`, when this is an object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(m) => m.get(key),
            _ => None,
        }
    }

    /// This value as a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// This value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// This value as an array slice.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(v) => Some(v),
            _ => None,
        }
    }
}

/// Parses one JSON document; trailing non-whitespace is an error. A
/// failure names what went wrong and its byte offset.
pub fn parse(input: &str) -> Result<Value, String> {
    let mut p = Parser { src: input, pos: 0 };
    let v = p.value()?;
    if p.pos != input.len() {
        return Err(p.err("trailing bytes after document"));
    }
    Ok(v)
}

struct Parser<'a> {
    src: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &str) -> String {
        format!("{msg} at byte {}", self.pos)
    }

    fn peek(&self) -> Option<char> {
        self.src[self.pos..].chars().next()
    }

    fn next(&mut self) -> Result<char, String> {
        let c = self.peek().ok_or_else(|| self.err("unexpected end"))?;
        self.pos += c.len_utf8();
        Ok(c)
    }

    /// Consumes `c` if it comes next.
    fn eat(&mut self, c: char) -> bool {
        let next = self.peek() == Some(c);
        self.pos += usize::from(next);
        next
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(' ' | '\t' | '\n' | '\r')) {
            self.pos += 1;
        }
    }

    /// One value and the whitespace around it.
    fn value(&mut self) -> Result<Value, String> {
        self.skip_ws();
        let v = match self.peek().ok_or_else(|| self.err("unexpected end"))? {
            '{' => Value::Object(self.seq('}', |p| {
                let key = p.string()?;
                p.skip_ws();
                if !p.eat(':') {
                    return Err(p.err("expected :"));
                }
                Ok((key, p.value()?))
            })?),
            '[' => Value::Array(self.seq(']', Self::value)?),
            '"' => Value::String(self.string()?),
            't' => self.literal("true", Value::Bool(true))?,
            'f' => self.literal("false", Value::Bool(false))?,
            'n' => self.literal("null", Value::Null)?,
            '-' | '0'..='9' => self.number()?,
            _ => return Err(self.err("unexpected character")),
        };
        self.skip_ws();
        Ok(v)
    }

    /// The comma-separated items between the bracket at `pos` and `close`.
    fn seq<T, C: FromIterator<T>>(
        &mut self,
        close: char,
        mut item: impl FnMut(&mut Self) -> Result<T, String>,
    ) -> Result<C, String> {
        self.pos += 1;
        self.skip_ws();
        let mut items = Vec::new();
        if !self.eat(close) {
            loop {
                self.skip_ws();
                items.push(item(self)?);
                if self.eat(close) {
                    break;
                }
                if !self.eat(',') {
                    return Err(self.err("expected , or a closing bracket"));
                }
            }
        }
        Ok(items.into_iter().collect())
    }

    fn literal(&mut self, lit: &str, v: Value) -> Result<Value, String> {
        if !self.src[self.pos..].starts_with(lit) {
            return Err(self.err("bad literal"));
        }
        self.pos += lit.len();
        Ok(v)
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        while matches!(self.peek(), Some('0'..='9' | '.' | 'e' | 'E' | '+' | '-')) {
            self.pos += 1;
        }
        let text = &self.src[start..self.pos];
        text.parse()
            .map(Value::Number)
            .map_err(|_| self.err("bad number"))
    }

    fn string(&mut self) -> Result<String, String> {
        if !self.eat('"') {
            return Err(self.err("expected a string"));
        }
        let mut out = String::new();
        loop {
            let c = match self.next()? {
                '"' => return Ok(out),
                '\\' => match self.next()? {
                    c @ ('"' | '\\' | '/') => c,
                    'n' => '\n',
                    't' => '\t',
                    'r' => '\r',
                    'b' => '\u{8}',
                    'f' => '\u{c}',
                    'u' => {
                        let hex = self.src.get(self.pos..self.pos + 4);
                        let code = hex.and_then(|h| u32::from_str_radix(h, 16).ok());
                        let code = code.ok_or_else(|| self.err("bad unicode escape"))?;
                        self.pos += 4;
                        char::from_u32(code).unwrap_or('\u{fffd}')
                    }
                    _ => return Err(self.err("bad escape")),
                },
                c => c,
            };
            out.push(c);
        }
    }
}

/// One report member as a [`Fields`] visitor hands it out: the place a
/// writer reads it from and a reader stores it into, typed by how the
/// report spells it.
pub enum Slot<'a> {
    /// A non-negative integer (every counter).
    Int(&'a mut u64),
    /// A strictly positive integer.
    Pos(&'a mut u64),
    /// A finite non-negative number, written with this many decimals.
    Num(&'a mut f64, usize),
    /// `true` / `false`.
    Flag(&'a mut bool),
    /// Free text.
    Text(&'a mut String),
    /// One of a fixed set of labels.
    Choice(&'a mut &'static str, &'a [&'static str]),
    /// A nested object.
    Object(&'a mut dyn Fields),
    /// An array of objects.
    Rows(&'a mut dyn Rows),
}

/// The callback a [`Fields`] visitor calls once per member, in order.
pub type Visit<'v> = dyn FnMut(&'static str, Slot<'_>) + 'v;

/// A report object: its members, listed once.
pub trait Fields {
    /// Calls `f(key, slot)` for every member, in report order.
    fn fields(&mut self, f: &mut Visit<'_>);
}

/// An array of report objects.
pub trait Rows {
    /// Every row, in order.
    fn rows(&mut self) -> Vec<&mut dyn Fields>;
    /// Appends a blank row for a reader to fill, and returns it.
    fn push_blank(&mut self) -> &mut dyn Fields;
}

impl<T: Fields + Default> Rows for Vec<T> {
    fn rows(&mut self) -> Vec<&mut dyn Fields> {
        self.iter_mut().map(|r| r as &mut dyn Fields).collect()
    }

    fn push_blank(&mut self) -> &mut dyn Fields {
        self.push(T::default());
        self.last_mut().expect("just pushed")
    }
}

/// A scalar slot as JSON, or (`json == false`) as a markdown table cell.
fn scalar(slot: Slot<'_>, json: bool) -> String {
    let text = |s: &str| {
        if json {
            format!("{s:?}")
        } else {
            format!("`{s}`")
        }
    };
    match slot {
        Slot::Int(n) | Slot::Pos(n) => n.to_string(),
        Slot::Num(x, places) => format!("{x:.places$}"),
        Slot::Flag(b) if json => b.to_string(),
        Slot::Flag(b) => (if *b { "yes" } else { "NO" }).into(),
        Slot::Text(s) => text(s),
        Slot::Choice(s, _) => text(s),
        Slot::Object(_) | Slot::Rows(_) => String::new(),
    }
}

/// Writes `doc` in the reports' layout: one member a line, nested objects
/// indented two spaces a level, an array of objects as `[{…}, {…}]`.
pub fn write(doc: &mut dyn Fields) -> String {
    object(doc, 0) + "\n"
}

fn object(doc: &mut dyn Fields, depth: usize) -> String {
    let pad = "  ".repeat(depth + 1);
    let mut members = Vec::new();
    doc.fields(&mut |key, slot| {
        let value = match slot {
            Slot::Object(o) => object(o, depth + 1),
            Slot::Rows(rows) => {
                let rows: Vec<String> = rows
                    .rows()
                    .into_iter()
                    .map(|r| object(r, depth + 1))
                    .collect();
                format!("[{}]", rows.join(", "))
            }
            slot => scalar(slot, true),
        };
        members.push(format!("{pad}\"{key}\": {value}"));
    });
    format!("{{\n{}\n{}}}", members.join(",\n"), "  ".repeat(depth))
}

/// Reads `doc` into `into`, member by member. Every key must be present
/// and hold its slot's type: numbers finite and non-negative, integers
/// whole. The first failure is returned, naming its key (and, inside an
/// array, the row's label).
pub fn read(doc: &Value, into: &mut dyn Fields) -> Result<(), String> {
    read_object(doc, into, false)
}

/// [`read`], prefixing errors after the first text member of a `named`
/// object (an array row) with that member, e.g. `mode "spoof": `.
fn read_object(doc: &Value, into: &mut dyn Fields, named: bool) -> Result<(), String> {
    let mut label = String::new();
    let mut result = Ok(());
    into.fields(&mut |key, slot| {
        if result.is_err() {
            return;
        }
        let names = named && label.is_empty() && matches!(slot, Slot::Text(_) | Slot::Choice(..));
        result = match doc.get(key) {
            Some(v) => read_slot(key, v, slot),
            None => Err(format!("missing \"{key}\"")),
        }
        .map_err(|e| format!("{label}{e}"));
        if names {
            let text = doc.get(key).and_then(Value::as_str).unwrap_or_default();
            label = format!("{key} {text:?}: ");
        }
    });
    result
}

fn read_slot(key: &str, v: &Value, slot: Slot<'_>) -> Result<(), String> {
    let bad = |want: &str| format!("\"{key}\" must be {want}, got {v:?}");
    let num = v.as_f64().filter(|n| n.is_finite() && *n >= 0.0);
    let int = num.filter(|n| n.fract() == 0.0);
    match slot {
        Slot::Int(n) => *n = int.ok_or_else(|| bad("a non-negative integer"))? as u64,
        Slot::Pos(n) => {
            *n = int
                .filter(|&n| n >= 1.0)
                .ok_or_else(|| bad("positive and whole"))? as u64
        }
        Slot::Num(x, _) => *x = num.ok_or_else(|| bad("a finite non-negative number"))?,
        Slot::Flag(b) => match v {
            Value::Bool(x) => *b = *x,
            _ => return Err(bad("true or false")),
        },
        Slot::Text(s) => *s = v.as_str().ok_or_else(|| bad("a string"))?.to_owned(),
        Slot::Choice(s, labels) => {
            *s = labels
                .iter()
                .find(|&&l| Some(l) == v.as_str())
                .ok_or_else(|| bad(&format!("one of {labels:?}")))?
        }
        Slot::Object(o) => read(v, o).map_err(|e| format!("{key}: {e}"))?,
        Slot::Rows(rows) => {
            for row in v.as_array().ok_or_else(|| bad("an array"))? {
                read_object(row, rows.push_blank(), true)?;
            }
        }
    }
    Ok(())
}

/// Renders `rows` as a markdown table: one column per member, headed by
/// its key.
pub fn table(rows: &mut dyn Rows) -> String {
    let mut out = String::new();
    for (i, row) in rows.rows().into_iter().enumerate() {
        let mut keys = Vec::new();
        let mut cells = Vec::new();
        row.fields(&mut |key, slot| {
            keys.push(key);
            cells.push(scalar(slot, false));
        });
        if i == 0 {
            out += &format!(
                "| {} |\n|{}\n",
                keys.join(" | "),
                " --- |".repeat(keys.len())
            );
        }
        out += &format!("| {} |\n", cells.join(" | "));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_arrays_and_objects() {
        assert_eq!(parse("null").unwrap(), Value::Null);
        assert_eq!(parse(" true ").unwrap(), Value::Bool(true));
        assert_eq!(parse("-12.5e1").unwrap(), Value::Number(-125.0));
        assert_eq!(
            parse(r#""a\"b\nc""#).unwrap(),
            Value::String("a\"b\nc".into())
        );
        let v = parse(r#"{"a": [1, {"b": "x"}], "c": 2}"#).unwrap();
        assert_eq!(v.get("c").and_then(Value::as_f64), Some(2.0));
        let arr = v.get("a").and_then(Value::as_array).unwrap();
        assert_eq!(arr[0].as_f64(), Some(1.0));
        assert_eq!(arr[1].get("b").and_then(Value::as_str), Some("x"));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["", "{", "[1,", "{\"a\" 1}", "tru", "1 2", "\"unterminated"] {
            assert!(parse(bad).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn parses_the_report_shapes() {
        use crate::check::Report;
        use crate::faults::{run_cell, FaultParams};
        use crate::host::HostFacts;
        let host = HostFacts {
            logical_cores: 2,
            cpu_model: "a \"quoted\" cpu".into(),
            rustc: "rustc 1.0".into(),
            git_rev: "abc1234".into(),
            sha256_kernel: "portable",
        };
        let params = FaultParams::smoke();
        let cell = run_cell(&params, 0, 0);
        let report = Report::new(
            host,
            params.seed,
            params.files,
            params.file_size,
            vec![cell],
        );
        let text = report.render();
        let v = parse(&text).expect("faults report parses");
        assert_eq!(v.get("scenario").and_then(Value::as_str), Some("faults"));
        assert_eq!(
            v.get("host")
                .and_then(|h| h.get("cpu_model"))
                .and_then(Value::as_str),
            Some("a \"quoted\" cpu")
        );
        let cells = v.get("cells").and_then(Value::as_array).expect("cells");
        assert_eq!(
            cells[0].get("tx_frames").and_then(Value::as_f64),
            Some(report.cells[0].stats.tx_frames as f64)
        );
        let back = Report::<crate::faults::FaultOutcome>::decode(&v).expect("reads back");
        assert_eq!(back.render(), text);
    }
}
