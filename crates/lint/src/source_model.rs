//! Source model on top of the [`crate::lexer`] token stream.
//!
//! One pass over a file's significant tokens recovers the three things the
//! scoped token rules of [`crate::src_lint`] need — there is no item
//! graph, no module path and no call site:
//!
//! - **Test mask**: `#[cfg(test)]` / `#[test]` items are brace-matched,
//!   so code *after* a test module is still analyzed (the old line scanner
//!   gave up at the first marker) and nothing *inside* one leaks findings.
//! - **Struct fields**: field names of config structs, for the dead-knob
//!   lint (`L011`).
//! - **Float-ascribed names**: identifiers with a visible `: f64` /
//!   `: f32`, for the float-determinism lint (`L009`).

use std::collections::BTreeSet;

use crate::lexer::{lex, Token, TokenKind};

/// Rust keywords — never field names, never float-ascribed names.
const KEYWORDS: &[&str] = &[
    "as", "async", "await", "box", "break", "const", "continue", "crate", "dyn", "else", "enum",
    "extern", "false", "fn", "for", "if", "impl", "in", "let", "loop", "match", "mod", "move",
    "mut", "pub", "ref", "return", "self", "Self", "static", "struct", "super", "trait", "true",
    "type", "union", "unsafe", "use", "where", "while", "yield",
];

fn is_keyword(text: &str) -> bool {
    KEYWORDS.contains(&text)
}

/// A non-test struct item and its named fields (tuple/unit structs record
/// none).
#[derive(Debug, Clone)]
pub struct StructItem {
    pub name: String,
    /// Whether the item is spelt `pub struct`.
    pub is_pub: bool,
    /// `(field name, line)` pairs, declaration order.
    pub fields: Vec<(String, u32)>,
}

/// A parsed source file: token stream plus the model.
#[derive(Debug)]
pub struct SourceFile {
    /// Workspace-relative path, `/`-separated.
    pub rel: String,
    pub src: Vec<u8>,
    /// The full lossless token stream.
    pub tokens: Vec<Token>,
    /// Indices into `tokens` of significant (non-trivia) tokens.
    pub sig: Vec<usize>,
    /// Per-`sig`-index: whether the token is inside test code.
    pub test_mask: Vec<bool>,
    pub structs: Vec<StructItem>,
    /// Names with a visible `: f64` / `: f32` ascription (params, typed
    /// lets, struct fields) anywhere in the file.
    pub float_idents: BTreeSet<String>,
}

impl SourceFile {
    /// Text of the significant token at sig-index `i`.
    pub fn sig_text(&self, i: usize) -> std::borrow::Cow<'_, str> {
        self.tokens[self.sig[i]].text(&self.src)
    }

    /// Kind of the significant token at sig-index `i`.
    pub fn sig_kind(&self, i: usize) -> TokenKind {
        self.tokens[self.sig[i]].kind
    }

    /// Line of the significant token at sig-index `i`.
    pub fn sig_line(&self, i: usize) -> u32 {
        self.tokens[self.sig[i]].line
    }

    /// Whether sig tokens `i` and `i + 1` are adjacent in the source
    /// (no trivia between) — how multi-byte operators like `::`, `==`,
    /// and `!=` are recognized over single-byte `Punct` tokens.
    pub fn sig_adjacent(&self, i: usize) -> bool {
        match (self.sig.get(i), self.sig.get(i + 1)) {
            (Some(&a), Some(&b)) => self.tokens[a].end == self.tokens[b].start,
            _ => false,
        }
    }

    /// Whether the sig token at `i` is the punctuation byte `p`.
    /// Out-of-range indices are simply not that punctuation.
    pub fn is_punct(&self, i: usize, p: &str) -> bool {
        match self.sig.get(i) {
            Some(&raw) => {
                self.tokens[raw].kind == TokenKind::Punct
                    && self.tokens[raw].bytes(&self.src) == p.as_bytes()
            }
            None => false,
        }
    }

    /// Whether the sig token at `i` is the identifier `name`.
    pub fn is_ident(&self, i: usize, name: &str) -> bool {
        match self.sig.get(i) {
            Some(&raw) => {
                self.tokens[raw].kind == TokenKind::Ident
                    && self.tokens[raw].bytes(&self.src) == name.as_bytes()
            }
            None => false,
        }
    }

    /// Whether sig tokens starting at `i` spell the operator `op`
    /// (adjacent single-byte puncts), e.g. `::` or `==`.
    pub fn is_op(&self, i: usize, op: &str) -> bool {
        for (k, ch) in op.chars().enumerate() {
            if !self.is_punct(i + k, ch.encode_utf8(&mut [0; 4])) {
                return false;
            }
            if k + 1 < op.len() && !self.sig_adjacent(i + k) {
                return false;
            }
        }
        // The operator must not extend further (`==` is not `===`, and
        // `..=` must not read as `.` + `.`).
        if let Some(last) = op.chars().last() {
            let j = i + op.len() - 1;
            if self.sig_adjacent(j) {
                if let Some(&nb) = self.sig.get(j + 1) {
                    if self.tokens[nb].kind == TokenKind::Punct {
                        let nxt = self.tokens[nb].text(&self.src).to_string();
                        // Extensions that change the operator's meaning.
                        let joined = format!("{last}{nxt}");
                        if matches!(joined.as_str(), "==" | "=>" | "::" | "..") {
                            return false;
                        }
                    }
                }
            }
        }
        true
    }

    /// Parses `bytes` into a source model. Total: never panics, even on
    /// unbalanced or non-UTF-8 input; unclosed items simply end at EOF.
    pub fn parse(rel: &str, bytes: Vec<u8>) -> SourceFile {
        let tokens = lex(&bytes);
        let sig: Vec<usize> = tokens
            .iter()
            .enumerate()
            .filter(|(_, t)| !t.is_trivia())
            .map(|(i, _)| i)
            .collect();
        let mut file = SourceFile {
            rel: rel.to_string(),
            src: bytes,
            test_mask: vec![false; sig.len()],
            tokens,
            sig,
            structs: Vec::new(),
            float_idents: BTreeSet::new(),
        };
        Parser::new(&mut file).run();
        // Every token counts here, signatures and struct fields included,
        // which the item parser steps over.
        for i in 0..file.sig.len() {
            if file.sig_kind(i) == TokenKind::Ident
                && file.is_punct(i + 1, ":")
                && !file.is_op(i + 1, "::")
                && (file.is_ident(i + 2, "f64") || file.is_ident(i + 2, "f32"))
            {
                let name = file.sig_text(i).into_owned();
                if !is_keyword(&name) {
                    file.float_idents.insert(name);
                }
            }
        }
        file
    }
}

struct Parser<'f> {
    file: &'f mut SourceFile,
    /// Cursor over sig indices.
    i: usize,
    /// A pending `#[cfg(test)]` / `#[test]` attribute awaiting an item.
    pending_test: bool,
    /// Sig index where the pending attribute run started (for masking).
    pending_attr_start: Option<usize>,
}

impl<'f> Parser<'f> {
    fn new(file: &'f mut SourceFile) -> Self {
        Parser {
            file,
            i: 0,
            pending_test: false,
            pending_attr_start: None,
        }
    }

    fn text(&self, i: usize) -> String {
        self.file.sig_text(i).into_owned()
    }

    fn kind(&self, i: usize) -> Option<TokenKind> {
        if i < self.file.sig.len() {
            Some(self.file.sig_kind(i))
        } else {
            None
        }
    }

    /// Finds the sig index of the brace that closes the `{` at `open`.
    /// Returns the index just past the end on unbalanced input.
    fn match_brace(&self, open: usize) -> usize {
        let mut depth = 0usize;
        let mut j = open;
        while j < self.file.sig.len() {
            if self.file.is_punct(j, "{") {
                depth += 1;
            } else if self.file.is_punct(j, "}") {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    return j;
                }
            }
            j += 1;
        }
        self.file.sig.len()
    }

    /// Whether the item whose keyword is at sig index `kw` is test code:
    /// under a pending test attribute, or inside an item already masked.
    fn is_test_at(&self, kw: usize) -> bool {
        self.pending_test || self.file.test_mask[kw]
    }

    /// Marks the item from its pending attributes (or its keyword at `kw`)
    /// through sig index `hi` as test code.
    fn mask_test(&mut self, kw: usize, hi: usize) {
        let lo = self.pending_attr_start.unwrap_or(kw);
        for m in self
            .file
            .test_mask
            .iter_mut()
            .take(hi.saturating_add(1).min(self.file.sig.len()))
            .skip(lo)
        {
            *m = true;
        }
    }

    fn run(&mut self) {
        let n = self.file.sig.len();
        while self.i < n {
            let i = self.i;
            match self.kind(i) {
                Some(TokenKind::Punct) => {
                    let t = self.text(i);
                    match t.as_str() {
                        "#" => {
                            self.attribute();
                            continue;
                        }
                        // Not an item after all: attributes attach to
                        // nothing.
                        "{" | "}" | ";" => self.clear_pending(),
                        _ => {}
                    }
                    self.i += 1;
                }
                Some(TokenKind::Ident) => {
                    let t = self.text(i);
                    match t.as_str() {
                        "fn" => self.fn_item(),
                        "mod" | "impl" | "trait" => self.braced_item(),
                        "struct" | "union" => self.struct_item(),
                        // Anything else — modifier keywords between
                        // attrs and the item keyword included — keeps
                        // pending state alive.
                        _ => self.i += 1,
                    }
                }
                _ => self.i += 1,
            }
        }
    }

    fn clear_pending(&mut self) {
        self.pending_test = false;
        self.pending_attr_start = None;
    }

    /// Parses an attribute at the cursor (`#` or `#!`), bracket-matched.
    fn attribute(&mut self) {
        let start = self.i;
        let mut j = self.i + 1;
        let inner = j < self.file.sig.len() && self.file.is_punct(j, "!");
        if inner {
            j += 1;
        }
        if j >= self.file.sig.len() || !self.file.is_punct(j, "[") {
            self.i += 1;
            return;
        }
        // Bracket-match to the closing `]`, collecting the attr body.
        let mut depth = 0usize;
        let mut body = String::new();
        while j < self.file.sig.len() {
            let t = self.text(j);
            if self.file.is_punct(j, "[") {
                depth += 1;
            } else if self.file.is_punct(j, "]") {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            body.push_str(&t);
            j += 1;
        }
        let is_test_attr = {
            let b = body.trim_start_matches('[');
            b == "test"
                || b.starts_with("cfg") && b.contains("test") && !b.contains("not(test")
                || b.starts_with("cfg_attr") && b.contains("test")
        };
        if is_test_attr && !inner {
            self.pending_test = true;
        }
        if self.pending_attr_start.is_none() {
            self.pending_attr_start = Some(start);
        }
        self.i = (j + 1).min(self.file.sig.len());
    }

    /// `fn`: under a pending test attribute, or inside test code, the item
    /// is masked through its closing brace. Parsing resumes inside the
    /// body (nested fns, test mods), just past the signature.
    fn fn_item(&mut self) {
        let fn_kw = self.i;
        let n = self.file.sig.len();
        // A `fn` not followed by a name is a function-pointer type.
        if self.kind(fn_kw + 1) != Some(TokenKind::Ident) {
            self.i += 1;
            return;
        }
        // Scan to the body `{` (or `;` for bodyless decls) at bracket
        // depth 0 — parens/brackets from params and return types nest.
        let mut j = fn_kw + 2;
        let mut paren = 0i64;
        let mut bracket = 0i64;
        let mut body_open = None;
        while j < n {
            if self.file.is_punct(j, "(") {
                paren += 1;
            } else if self.file.is_punct(j, ")") {
                paren -= 1;
            } else if self.file.is_punct(j, "[") {
                bracket += 1;
            } else if self.file.is_punct(j, "]") {
                bracket -= 1;
            } else if paren <= 0 && bracket <= 0 && self.file.is_punct(j, "{") {
                body_open = Some(j);
                break;
            } else if paren <= 0 && bracket <= 0 && self.file.is_punct(j, ";") {
                break;
            }
            j += 1;
        }
        if self.is_test_at(fn_kw) {
            let close = body_open.map_or(j, |open| self.match_brace(open));
            self.mask_test(fn_kw, close);
        }
        self.clear_pending();
        self.i = (body_open.unwrap_or(j) + 1).min(n);
    }

    /// `mod` / `impl` / `trait`: all the rules need of these is that a
    /// braced body under a pending `#[cfg(test)]` is test code. Parsing
    /// resumes inside the braces, where the items are.
    fn braced_item(&mut self) {
        let kw = self.i;
        let n = self.file.sig.len();
        let mut j = kw + 1;
        while j < n && !self.file.is_punct(j, "{") && !self.file.is_punct(j, ";") {
            j += 1;
        }
        if self.pending_test && self.file.is_punct(j, "{") {
            let close = self.match_brace(j);
            self.mask_test(kw, close);
        }
        self.clear_pending();
        self.i = (j + 1).min(n);
    }

    fn struct_item(&mut self) {
        let kw = self.i;
        let n = self.file.sig.len();
        let name = if kw + 1 < n && self.kind(kw + 1) == Some(TokenKind::Ident) {
            self.text(kw + 1)
        } else {
            self.i += 1;
            return;
        };
        let is_pub = kw > 0 && self.file.is_ident(kw - 1, "pub");
        // Skip generics to the defining delimiter.
        let mut j = kw + 2;
        let mut angle = 0i64;
        while j < n {
            if self.file.is_punct(j, "<") {
                angle += 1;
            } else if self.file.is_punct(j, ">") {
                // `->` cannot appear here; plain decrement is safe.
                angle -= 1;
            } else if angle <= 0
                && (self.file.is_punct(j, "{")
                    || self.file.is_punct(j, "(")
                    || self.file.is_punct(j, ";"))
            {
                break;
            }
            j += 1;
        }
        let mut fields = Vec::new();
        let mut end = j;
        if j < n && self.file.is_punct(j, "{") {
            let close = self.match_brace(j);
            // Field grammar at depth 1: `(attrs) (pub(..))? name :`.
            let mut k = j + 1;
            let mut depth = (0i64, 0i64, 0i64); // paren, bracket, brace
            while k < close {
                if self.file.is_punct(k, "(") {
                    depth.0 += 1;
                } else if self.file.is_punct(k, ")") {
                    depth.0 -= 1;
                } else if self.file.is_punct(k, "[") {
                    depth.1 += 1;
                } else if self.file.is_punct(k, "]") {
                    depth.1 -= 1;
                } else if self.file.is_punct(k, "{") {
                    depth.2 += 1;
                } else if self.file.is_punct(k, "}") {
                    depth.2 -= 1;
                } else if depth == (0, 0, 0)
                    && self.kind(k) == Some(TokenKind::Ident)
                    && k + 1 < close
                    && self.file.is_punct(k + 1, ":")
                    && !self.file.is_op(k + 1, "::")
                {
                    let t = self.text(k);
                    // Only at field position: previous sig is `{`, `,`,
                    // `]` (attr end), `)` (pub(crate)), or `pub` itself.
                    let prev_ok = k == j + 1
                        || self.file.is_punct(k - 1, ",")
                        || self.file.is_punct(k - 1, "]")
                        || self.file.is_punct(k - 1, ")")
                        || self.file.is_ident(k - 1, "pub");
                    if prev_ok && !is_keyword(&t) {
                        fields.push((t, self.file.sig_line(k)));
                    }
                }
                k += 1;
            }
            // Do not descend into the braces — skip past.
            end = close;
        }
        if self.is_test_at(kw) {
            self.mask_test(kw, end);
        } else {
            let item = StructItem {
                name,
                is_pub,
                fields,
            };
            self.file.structs.push(item);
        }
        self.clear_pending();
        self.i = (end + 1).min(n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(src: &str) -> SourceFile {
        SourceFile::parse("test.rs", src.as_bytes().to_vec())
    }

    fn masked(f: &SourceFile, ident: &str) -> bool {
        let at = (0..f.sig.len()).find(|&i| f.sig_text(i) == ident);
        f.test_mask[at.expect(ident)]
    }

    #[test]
    fn cfg_test_is_brace_matched_not_terminal() {
        let f = parse(
            "fn before() { hot(); }\n\
             #[cfg(test)]\nmod tests {\n    fn helper() { x.unwrap(); }\n}\n\
             fn after() { also_hot(); }\n",
        );
        // Code after a test module is NOT test code; the module is.
        assert!(!masked(&f, "hot") && !masked(&f, "after") && !masked(&f, "also_hot"));
        assert!(masked(&f, "helper") && masked(&f, "unwrap"));
    }

    #[test]
    fn test_attr_masks_single_fn() {
        let f = parse("#[test]\nfn check() { assert!(true); }\nfn prod() {}\n");
        assert!(masked(&f, "check") && masked(&f, "assert"));
        assert!(!masked(&f, "prod"));
    }

    #[test]
    fn cfg_test_masks_impl_mod_and_trait_bodies_alike() {
        for item in [
            "impl Widget",
            "impl Tool for Hammer",
            "mod helpers",
            "trait Probe",
        ] {
            let f = parse(&format!(
                "#[cfg(test)]\n{item} {{ fn inside() {{ x.unwrap(); }} }}\nfn prod() {{ live(); }}\n"
            ));
            assert!(masked(&f, "inside") && masked(&f, "unwrap"), "{item}");
            assert!(!masked(&f, "prod") && !masked(&f, "live"), "{item}");
        }
    }

    #[test]
    fn struct_fields() {
        let f = parse(
            "pub struct Config {\n\
                /// Doc.\n\
                pub alpha: u64,\n\
                #[allow(dead_code)]\n\
                pub beta: Vec<(u32, u32)>,\n\
                gamma: BTreeMap<String, f64>,\n\
             }\n\
             struct Tuple(u32, u32);\n\
             #[cfg(test)]\npub struct FakeConfig { pub delta: f64 }\n",
        );
        let cfg = &f.structs[0];
        let names: Vec<&str> = cfg.fields.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["alpha", "beta", "gamma"]);
        assert!(cfg.is_pub && !f.structs[1].is_pub);
        assert_eq!(f.structs[1].fields.len(), 0);
        assert_eq!(f.structs.len(), 2, "test-only structs are not recorded");
    }

    #[test]
    fn float_ascriptions_are_collected() {
        let f = parse("fn f(a: f64, n: usize) { let b: f32 = 0.0; let c = std::f64::MAX; }\n");
        let names: Vec<&str> = f.float_idents.iter().map(String::as_str).collect();
        assert_eq!(names, vec!["a", "b"]);
    }

    #[test]
    fn total_on_garbage() {
        for src in ["fn", "impl {", "struct", "fn f(", "mod m {", "#[", "}}}"] {
            let _ = parse(src); // must not panic
        }
    }
}
