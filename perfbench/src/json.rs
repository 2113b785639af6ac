//! A minimal JSON object writer (the build is std-only).

use std::fmt;

/// A JSON object under construction; fields keep insertion order.
#[derive(Default, Clone)]
pub struct Obj {
    fields: Vec<(String, String)>,
}

fn quote(s: &str) -> String {
    let mut q = String::with_capacity(s.len() + 2);
    q.push('"');
    for c in s.chars() {
        match c {
            '"' => q.push_str("\\\""),
            '\\' => q.push_str("\\\\"),
            c if (c as u32) < 0x20 => q.push_str(&format!("\\u{:04x}", c as u32)),
            c => q.push(c),
        }
    }
    q.push('"');
    q
}

/// A number as JSON: shortest round-trip digits, `null` when not finite.
fn number(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "null".to_string()
    }
}

impl Obj {
    pub fn new() -> Self {
        Obj::default()
    }

    fn raw(mut self, key: &str, value: String) -> Self {
        self.fields.push((key.to_string(), value));
        self
    }

    pub fn num(self, key: &str, x: f64) -> Self {
        self.raw(key, number(x))
    }

    pub fn int(self, key: &str, x: u64) -> Self {
        self.raw(key, x.to_string())
    }

    pub fn str(self, key: &str, s: &str) -> Self {
        self.raw(key, quote(s))
    }

    pub fn nums(self, key: &str, xs: &[f64]) -> Self {
        let items: Vec<String> = xs.iter().map(|&x| number(x)).collect();
        self.raw(key, format!("[{}]", items.join(", ")))
    }

    pub fn ints(self, key: &str, xs: &[u64]) -> Self {
        let items: Vec<String> = xs.iter().map(u64::to_string).collect();
        self.raw(key, format!("[{}]", items.join(", ")))
    }

    pub fn strs(self, key: &str, xs: &[String]) -> Self {
        let items: Vec<String> = xs.iter().map(|s| quote(s)).collect();
        self.raw(key, format!("[{}]", items.join(", ")))
    }

    pub fn obj(self, key: &str, o: &Obj) -> Self {
        self.raw(key, o.to_string())
    }

    pub fn objs(self, key: &str, os: &[Obj]) -> Self {
        let items: Vec<String> = os.iter().map(Obj::to_string).collect();
        self.raw(key, format!("[{}]", items.join(", ")))
    }
}

impl fmt::Display for Obj {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("{")?;
        for (i, (k, v)) in self.fields.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{}: {v}", quote(k))?;
        }
        f.write_str("}")
    }
}
