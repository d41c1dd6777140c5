//! Offline stand-in for `serde_derive`.
//!
//! `syn`/`quote` are unavailable (no crates.io access), so this derive
//! parses the item's `proc_macro::TokenStream` by hand and emits impls as
//! source strings. Supported shapes — everything this workspace derives:
//!
//! * structs with named fields → JSON objects keyed by field name;
//! * enums with unit variants (→ `"Variant"` strings), newtype/tuple
//!   variants (→ `{"Variant": value}` / `{"Variant": [values…]}`), and
//!   struct variants (→ `{"Variant": {fields…}}`), externally tagged like
//!   real serde's default representation.
//!
//! Generics and `#[serde(...)]` attributes are not supported and panic
//! with a clear message at expansion time. `serde` is registered as a
//! derive helper attribute only so that rustc hands it to the derive,
//! which rejects it: a `rename` or `default` must not compile and then be
//! ignored at load time.

use proc_macro::{Delimiter, Group, TokenStream, TokenTree};
use std::iter::Peekable;

enum Item {
    Struct {
        name: String,
        fields: Vec<String>,
    },
    Enum {
        name: String,
        variants: Vec<Variant>,
    },
}

struct Variant {
    name: String,
    data: VariantData,
}

enum VariantData {
    Unit,
    Tuple(usize),
    Struct(Vec<String>),
}

#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    let src = match &item {
        Item::Struct { name, fields } => gen_struct_serialize(name, fields),
        Item::Enum { name, variants } => gen_enum_serialize(name, variants),
    };
    src.parse()
        .expect("serde_derive shim: generated invalid Serialize impl")
}

#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    let src = match &item {
        Item::Struct { name, fields } => gen_struct_deserialize(name, fields),
        Item::Enum { name, variants } => gen_enum_deserialize(name, variants),
    };
    src.parse()
        .expect("serde_derive shim: generated invalid Deserialize impl")
}

// ------------------------------------------------------------------ parsing

type Tokens = Peekable<proc_macro::token_stream::IntoIter>;

/// Consume leading `#[...]` attributes and `pub`/`pub(...)` visibility,
/// panicking on a `#[serde(...)]` attribute.
fn skip_attrs_and_vis(toks: &mut Tokens) {
    loop {
        match toks.peek() {
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                toks.next();
                match toks.next() {
                    Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Bracket => {
                        if let Some(TokenTree::Ident(id)) = g.stream().into_iter().next() {
                            if id.to_string() == "serde" {
                                panic!(
                                    "serde_derive shim: `#[{}]` is not supported; the shim \
                                     has no serde attributes",
                                    g.stream()
                                );
                            }
                        }
                    }
                    other => panic!("serde_derive shim: malformed attribute, got {other:?}"),
                }
            }
            Some(TokenTree::Ident(id)) if id.to_string() == "pub" => {
                toks.next();
                if let Some(TokenTree::Group(g)) = toks.peek() {
                    if g.delimiter() == Delimiter::Parenthesis {
                        toks.next();
                    }
                }
            }
            _ => return,
        }
    }
}

fn parse_item(input: TokenStream) -> Item {
    let mut toks: Tokens = input.into_iter().peekable();
    skip_attrs_and_vis(&mut toks);

    let kind = match toks.next() {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => panic!("serde_derive shim: expected `struct` or `enum`, got {other:?}"),
    };
    let name = match toks.next() {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => panic!("serde_derive shim: expected item name, got {other:?}"),
    };
    if let Some(TokenTree::Punct(p)) = toks.peek() {
        if p.as_char() == '<' {
            panic!("serde_derive shim: generic type `{name}` is not supported");
        }
    }
    let body = match toks.next() {
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => g,
        other => panic!(
            "serde_derive shim: `{name}` must have a braced body (tuple/unit structs \
             are unsupported), got {other:?}"
        ),
    };

    match kind.as_str() {
        "struct" => Item::Struct {
            name,
            fields: parse_named_fields(&body),
        },
        "enum" => Item::Enum {
            name,
            variants: parse_variants(&body),
        },
        other => panic!("serde_derive shim: cannot derive for `{other}` items"),
    }
}

/// Parse `field: Type, ...` out of a braced group, returning field names.
fn parse_named_fields(body: &Group) -> Vec<String> {
    let mut toks: Tokens = body.stream().into_iter().peekable();
    let mut fields = Vec::new();
    loop {
        skip_attrs_and_vis(&mut toks);
        let field = match toks.next() {
            None => break,
            Some(TokenTree::Ident(id)) => id.to_string(),
            other => panic!("serde_derive shim: expected field name, got {other:?}"),
        };
        match toks.next() {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => {}
            other => panic!("serde_derive shim: expected `:` after field `{field}`, got {other:?}"),
        }
        skip_type(&mut toks);
        fields.push(field);
    }
    fields
}

/// Consume type tokens up to (and including) the next comma at angle-depth 0.
fn skip_type(toks: &mut Tokens) {
    let mut angle_depth = 0i32;
    while let Some(tt) = toks.peek() {
        match tt {
            TokenTree::Punct(p) if p.as_char() == '<' => angle_depth += 1,
            TokenTree::Punct(p) if p.as_char() == '>' => angle_depth -= 1,
            TokenTree::Punct(p) if p.as_char() == ',' && angle_depth == 0 => {
                toks.next();
                return;
            }
            _ => {}
        }
        toks.next();
    }
}

fn parse_variants(body: &Group) -> Vec<Variant> {
    let mut toks: Tokens = body.stream().into_iter().peekable();
    let mut variants = Vec::new();
    loop {
        skip_attrs_and_vis(&mut toks);
        let name = match toks.next() {
            None => break,
            Some(TokenTree::Ident(id)) => id.to_string(),
            other => panic!("serde_derive shim: expected variant name, got {other:?}"),
        };
        let data = match toks.peek() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                let arity = count_top_level_fields(g);
                toks.next();
                VariantData::Tuple(arity)
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                let fields = parse_named_fields(g);
                toks.next();
                VariantData::Struct(fields)
            }
            _ => VariantData::Unit,
        };
        // Discriminant values (`Variant = 3`) are not supported; next token
        // must be the separating comma (or end of body).
        match toks.next() {
            None => {
                variants.push(Variant { name, data });
                break;
            }
            Some(TokenTree::Punct(p)) if p.as_char() == ',' => {
                variants.push(Variant { name, data });
            }
            other => {
                panic!("serde_derive shim: expected `,` after variant `{name}`, got {other:?}")
            }
        }
    }
    variants
}

/// Number of comma-separated fields in a tuple-variant paren group.
fn count_top_level_fields(g: &Group) -> usize {
    let mut depth = 0i32;
    let mut fields = 0usize;
    let mut saw_tokens = false;
    for tt in g.stream() {
        match tt {
            TokenTree::Punct(ref p) if p.as_char() == '<' => depth += 1,
            TokenTree::Punct(ref p) if p.as_char() == '>' => depth -= 1,
            TokenTree::Punct(ref p) if p.as_char() == ',' && depth == 0 => {
                fields += 1;
                saw_tokens = false;
                continue;
            }
            _ => {}
        }
        saw_tokens = true;
    }
    if saw_tokens {
        fields += 1;
    }
    fields
}

// ------------------------------------------------------------------ codegen

fn gen_struct_serialize(name: &str, fields: &[String]) -> String {
    let mut pushes = String::new();
    for f in fields {
        pushes.push_str(&format!(
            "entries.push((\"{f}\".to_string(), ::serde::Serialize::to_value(&self.{f})));\n"
        ));
    }
    format!(
        "impl ::serde::Serialize for {name} {{\n\
            fn to_value(&self) -> ::serde::Value {{\n\
                let mut entries: ::std::vec::Vec<(::std::string::String, ::serde::Value)> = ::std::vec::Vec::new();\n\
                {pushes}\
                ::serde::Value::Object(entries)\n\
            }}\n\
        }}"
    )
}

fn gen_struct_deserialize(name: &str, fields: &[String]) -> String {
    let mut inits = String::new();
    for f in fields {
        inits.push_str(&format!(
            "{f}: ::serde::Deserialize::from_value(v.get(\"{f}\")\
                 .ok_or_else(|| ::serde::Error::missing_field(\"{f}\"))?)?,\n"
        ));
    }
    format!(
        "impl ::serde::Deserialize for {name} {{\n\
            fn from_value(v: &::serde::Value) -> ::std::result::Result<Self, ::serde::Error> {{\n\
                if v.as_object().is_none() {{\n\
                    return ::std::result::Result::Err(::serde::Error::expected(\"object\", v));\n\
                }}\n\
                ::std::result::Result::Ok({name} {{\n\
                    {inits}\
                }})\n\
            }}\n\
        }}"
    )
}

fn bindings(arity: usize) -> Vec<String> {
    (0..arity).map(|i| format!("x{i}")).collect()
}

fn gen_enum_serialize(name: &str, variants: &[Variant]) -> String {
    let mut arms = String::new();
    for v in variants {
        let vn = &v.name;
        match &v.data {
            VariantData::Unit => {
                arms.push_str(&format!(
                    "{name}::{vn} => ::serde::Value::Str(\"{vn}\".to_string()),\n"
                ));
            }
            VariantData::Tuple(arity) => {
                let binds = bindings(*arity);
                let pat = binds.join(", ");
                let inner = if *arity == 1 {
                    "::serde::Serialize::to_value(x0)".to_string()
                } else {
                    let elems = binds
                        .iter()
                        .map(|b| format!("::serde::Serialize::to_value({b})"))
                        .collect::<Vec<_>>()
                        .join(", ");
                    format!("::serde::Value::Array(vec![{elems}])")
                };
                arms.push_str(&format!(
                    "{name}::{vn}({pat}) => ::serde::Value::Object(vec![(\"{vn}\".to_string(), {inner})]),\n"
                ));
            }
            VariantData::Struct(fields) => {
                let pat = fields.join(", ");
                let entries = fields
                    .iter()
                    .map(|f| format!("(\"{f}\".to_string(), ::serde::Serialize::to_value({f}))"))
                    .collect::<Vec<_>>()
                    .join(", ");
                arms.push_str(&format!(
                    "{name}::{vn} {{ {pat} }} => ::serde::Value::Object(vec![(\"{vn}\".to_string(), ::serde::Value::Object(vec![{entries}]))]),\n"
                ));
            }
        }
    }
    format!(
        "impl ::serde::Serialize for {name} {{\n\
            fn to_value(&self) -> ::serde::Value {{\n\
                match self {{\n\
                    {arms}\
                }}\n\
            }}\n\
        }}"
    )
}

fn gen_enum_deserialize(name: &str, variants: &[Variant]) -> String {
    let mut unit_arms = String::new();
    let mut tagged_arms = String::new();
    for v in variants {
        let vn = &v.name;
        match &v.data {
            VariantData::Unit => {
                unit_arms.push_str(&format!(
                    "\"{vn}\" => ::std::result::Result::Ok({name}::{vn}),\n"
                ));
            }
            VariantData::Tuple(arity) => {
                let body = if *arity == 1 {
                    format!(
                        "::std::result::Result::Ok({name}::{vn}(::serde::Deserialize::from_value(inner)?))"
                    )
                } else {
                    let elems = (0..*arity)
                        .map(|i| format!("::serde::Deserialize::from_value(&xs[{i}])?"))
                        .collect::<Vec<_>>()
                        .join(", ");
                    format!(
                        "{{\n\
                            let xs = inner.as_array().ok_or_else(|| ::serde::Error::expected(\"array\", inner))?;\n\
                            if xs.len() != {arity} {{\n\
                                return ::std::result::Result::Err(::serde::Error::new(\
                                    format!(\"variant `{vn}` expects {arity} values, got {{}}\", xs.len())));\n\
                            }}\n\
                            ::std::result::Result::Ok({name}::{vn}({elems}))\n\
                        }}"
                    )
                };
                tagged_arms.push_str(&format!("\"{vn}\" => {body},\n"));
            }
            VariantData::Struct(fields) => {
                let inits = fields
                    .iter()
                    .map(|f| {
                        format!(
                            "{f}: ::serde::Deserialize::from_value(inner.get(\"{f}\")\
                                 .ok_or_else(|| ::serde::Error::missing_field(\"{f}\"))?)?"
                        )
                    })
                    .collect::<Vec<_>>()
                    .join(", ");
                tagged_arms.push_str(&format!(
                    "\"{vn}\" => ::std::result::Result::Ok({name}::{vn} {{ {inits} }}),\n"
                ));
            }
        }
    }
    format!(
        "impl ::serde::Deserialize for {name} {{\n\
            fn from_value(v: &::serde::Value) -> ::std::result::Result<Self, ::serde::Error> {{\n\
                if let ::std::option::Option::Some(s) = v.as_str() {{\n\
                    return match s {{\n\
                        {unit_arms}\
                        other => ::std::result::Result::Err(::serde::Error::new(\
                            format!(\"unknown variant `{{other}}` of `{name}`\"))),\n\
                    }};\n\
                }}\n\
                if let ::std::option::Option::Some(entries) = v.as_object() {{\n\
                    if entries.len() == 1 {{\n\
                        let (tag, inner) = &entries[0];\n\
                        let _ = inner;\n\
                        return match tag.as_str() {{\n\
                            {tagged_arms}\
                            other => ::std::result::Result::Err(::serde::Error::new(\
                                format!(\"unknown variant `{{other}}` of `{name}`\"))),\n\
                        }};\n\
                    }}\n\
                }}\n\
                ::std::result::Result::Err(::serde::Error::expected(\"`{name}` variant\", v))\n\
            }}\n\
        }}"
    )
}
