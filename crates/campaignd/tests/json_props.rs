//! Hostile-input property for the JSON parser behind campaign specs and the
//! control protocol: whatever a mutation does to a real spec or request
//! line, parsing returns an error or a value whose text parses back to
//! itself — it never panics and never recurses past its nesting bound.

use mavr_campaignd::json::{Json, MAX_DEPTH};
use mavr_campaignd::CampaignSpec;
use proptest::prelude::*;

/// A spec as an operator writes it, and the protocol lines a client sends.
const CORPUS: [&str; 6] = [
    r#"{
    "name": "night-sweep",
    "boards": 2,
    "scenarios": ["benign", "v2", "stealthy"],
    "loss_levels": [0.0, 0.01],
    "fault_levels": [0.0, 5e-4],
    "attack_cycles": 2500000,
    "seed": 18446744073709551615,
    "app": "plane",
    "physics": false,
    "shard_jobs": 3
}"#,
    r#"{"op":"submit","spec":{"name":"e2e","boards":2,"scenarios":["benign","v2"],"loss_levels":[0.01],"attack_cycles":2500000,"shard_jobs":3}}"#,
    r#"{"op":"status","campaign":"e2e"}"#,
    r#"{"op":"run","campaign":"e2e","max_jobs":2}"#,
    r#"{"op":"merge","campaign":"café \"q\" \\ 😀"}"#,
    r#"{"op":"stats"}"#,
];

/// One mutation of `text`, chosen and placed by `(op, a, b)`.
fn mutate(text: &mut Vec<u8>, (op, a, b): (u8, u32, u32)) {
    let (a, b) = (a as usize, b as usize);
    match op % 6 {
        // Flip one bit (may leave invalid UTF-8; parsed lossily).
        0 => {
            if !text.is_empty() {
                let at = a % text.len();
                text[at] ^= 1 << (b % 8);
            }
        }
        // Delete a short run.
        1 => {
            let at = a % (text.len() + 1);
            let end = (at + b % 16).min(text.len());
            text.drain(at..end);
        }
        // Insert a syntax character.
        2 => {
            let alphabet = b"{}[]\",:\\u0123456789abcdefeE.-+ ntfx\n";
            let at = a % (text.len() + 1);
            text.insert(at, alphabet[b % alphabet.len()]);
        }
        // Copy a slice elsewhere (nests containers inside themselves).
        3 => {
            let from = a % (text.len() + 1);
            let end = (from + b % 64).min(text.len());
            let slice = text[from..end].to_vec();
            let at = (a / 7 + b) % (text.len() + 1);
            text.splice(at..at, slice);
        }
        // Open a run of containers, sometimes past the nesting bound.
        4 => {
            let opener: &[u8] = if b % 2 == 0 { b"[" } else { br#"{"k":"# };
            let run = b % (2 * MAX_DEPTH + 8);
            let at = a % (text.len() + 1);
            text.splice(at..at, opener.repeat(run));
        }
        // Wrap the whole text in balanced containers, sometimes past the
        // bound.
        _ => {
            let (open, close): (&[u8], &[u8]) = if b % 2 == 0 {
                (b"[", b"]")
            } else {
                (br#"{"k":"#, b"}")
            };
            let run = a % (2 * MAX_DEPTH + 8);
            let mut wrapped = open.repeat(run);
            wrapped.append(text);
            wrapped.extend(close.repeat(run));
            *text = wrapped;
        }
    }
}

/// How deeply `v`'s containers nest (a scalar is 0).
fn depth(v: &Json) -> usize {
    match v {
        Json::Arr(items) => 1 + items.iter().map(depth).max().unwrap_or(0),
        Json::Obj(fields) => 1 + fields.iter().map(|(_, v)| depth(v)).max().unwrap_or(0),
        _ => 0,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]
    /// Every mutated spec or request line is an error or round-trips
    /// through `to_text`; the spec reader on top of it never panics.
    #[test]
    fn mutated_specs_and_requests_are_errors_or_round_trip(
        pick in 0usize..CORPUS.len(),
        ops in proptest::collection::vec((any::<u8>(), any::<u32>(), any::<u32>()), 1..5),
    ) {
        let mut text = CORPUS[pick].as_bytes().to_vec();
        for &op in &ops {
            mutate(&mut text, op);
        }
        let text = String::from_utf8_lossy(&text);
        if let Ok(value) = Json::parse(&text) {
            prop_assert!(depth(&value) <= MAX_DEPTH);
            prop_assert_eq!(Json::parse(&value.to_text()), Ok(value));
        }
        let _ = CampaignSpec::from_json(&text);
    }
}

#[test]
fn the_corpus_parses() {
    for text in CORPUS {
        let value = Json::parse(text).unwrap();
        assert_eq!(Json::parse(&value.to_text()), Ok(value));
    }
    CampaignSpec::from_json(CORPUS[0]).unwrap();
}
