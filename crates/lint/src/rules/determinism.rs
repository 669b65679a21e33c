//! Rule: determinism — no hash-ordered iteration in protocol paths.
//!
//! Replicas are deterministic state machines and the seed-replayable
//! simulator assumes it; iterating a `HashMap`/`HashSet` in a protocol
//! path lets hasher randomness reach message emission order.

use crate::lexer::{Kind, Token};
use crate::{Finding, RULE_DETERMINISM};
use std::collections::BTreeSet;

/// Hash-ordered iteration methods flagged by this rule. `retain`,
/// `insert`, `get`, `contains_key`, and `len` are order-independent and
/// deliberately not listed.
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "into_iter",
    "into_keys",
    "into_values",
];

/// Point lookups: a `for … in` expression may call these on a hash
/// container, because their result does not depend on iteration order.
const LOOKUP_METHODS: &[&str] = &[
    "get",
    "get_mut",
    "contains_key",
    "contains",
    "len",
    "is_empty",
];

pub(crate) fn run(
    file: &str,
    toks: &[Token],
    snippet: &dyn Fn(u32) -> String,
    findings: &mut Vec<Finding>,
) {
    let tracked = tracked_hash_names(toks);
    if tracked.is_empty() {
        return;
    }

    // Direct iteration-method calls: `name.keys()`, `self.name.iter()`, …
    for i in 2..toks.len() {
        if toks[i].kind == Kind::Ident
            && ITER_METHODS.contains(&toks[i].text.as_str())
            && toks[i - 1].text == "."
            && toks.get(i + 1).map(|t| t.text.as_str()) == Some("(")
            && toks[i - 2].kind == Kind::Ident
            && tracked.contains(&toks[i - 2].text)
        {
            findings.push(Finding {
                file: file.to_string(),
                line: toks[i].line,
                rule: RULE_DETERMINISM,
                message: format!(
                    "iteration over hash-ordered `{}` (`.{}()`); hasher randomness can reach \
                     protocol order — use BTreeMap/BTreeSet or sort at emission",
                    toks[i - 2].text,
                    toks[i].text
                ),
                snippet: snippet(toks[i].line),
            });
        }
    }

    // `for … in <expr over a tracked container> { … }`
    let mut i = 0usize;
    while i < toks.len() {
        if toks[i].text == "for" && toks[i].kind == Kind::Ident {
            let mut depth = 0i32;
            let mut j = i + 1;
            let mut in_idx = None;
            while j < toks.len() {
                match toks[j].text.as_str() {
                    "(" | "[" => depth += 1,
                    ")" | "]" => depth -= 1,
                    "{" if depth == 0 => break,
                    ";" if depth == 0 => break,
                    "in" if depth == 0 && toks[j].kind == Kind::Ident && in_idx.is_none() => {
                        in_idx = Some(j);
                    }
                    _ => {}
                }
                j += 1;
            }
            if let Some(start) = in_idx {
                for (k, tok) in toks.iter().enumerate().take(j).skip(start + 1) {
                    if tok.kind == Kind::Ident && tracked.contains(&tok.text) && !is_lookup(toks, k)
                    {
                        findings.push(Finding {
                            file: file.to_string(),
                            line: tok.line,
                            rule: RULE_DETERMINISM,
                            message: format!(
                                "`for … in` over hash-ordered `{}`; iteration order is \
                                 hasher-dependent — use BTreeMap/BTreeSet",
                                tok.text
                            ),
                            snippet: snippet(tok.line),
                        });
                        break;
                    }
                }
            }
        }
        i += 1;
    }
}

/// True when the token at `k` is the receiver of a point lookup,
/// `name.get(…)` and the like ([`LOOKUP_METHODS`]).
fn is_lookup(toks: &[Token], k: usize) -> bool {
    let text = |i: usize| toks.get(i).map(|t| t.text.as_str());
    text(k + 1) == Some(".")
        && toks
            .get(k + 2)
            .is_some_and(|t| t.kind == Kind::Ident && LOOKUP_METHODS.contains(&t.text.as_str()))
        && text(k + 3) == Some("(")
}

/// Collects identifiers bound to a `HashMap`/`HashSet` type in this
/// file: struct fields, fn params, `let` bindings (annotated or
/// constructed via `HashMap::new()`-style calls).
fn tracked_hash_names(toks: &[Token]) -> BTreeSet<String> {
    let mut tracked = BTreeSet::new();
    for (i, tok) in toks.iter().enumerate() {
        if tok.kind != Kind::Ident || (tok.text != "HashMap" && tok.text != "HashSet") {
            continue;
        }
        // Walk left across type-ish tokens to the binding site.
        let mut j = i as isize - 1;
        while j >= 0 {
            let t = &toks[j as usize];
            match t.text.as_str() {
                ":" => {
                    if j >= 1 && toks[j as usize - 1].kind == Kind::Ident {
                        tracked.insert(toks[j as usize - 1].text.clone());
                    }
                    break;
                }
                "=" => {
                    // `let [mut] name = HashMap::new()` — scan for the `let`.
                    let mut k = j - 1;
                    let floor = (j - 8).max(0);
                    while k >= floor {
                        let lt = &toks[k as usize];
                        if lt.text == "let" {
                            let mut name_idx = k as usize + 1;
                            while name_idx < toks.len()
                                && matches!(toks[name_idx].text.as_str(), "mut" | "ref")
                            {
                                name_idx += 1;
                            }
                            if toks[name_idx].kind == Kind::Ident {
                                tracked.insert(toks[name_idx].text.clone());
                            }
                            break;
                        }
                        if matches!(lt.text.as_str(), ";" | "{" | "}") {
                            break;
                        }
                        k -= 1;
                    }
                    break;
                }
                "::" | "<" | ">" | "," | "&" | "(" | ")" | "mut" => j -= 1,
                _ if t.kind == Kind::Ident || t.kind == Kind::Lifetime => j -= 1,
                _ => break,
            }
        }
    }
    tracked
}
