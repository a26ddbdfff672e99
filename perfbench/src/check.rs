//! Output checks shared by every workload: ledger flattening, the digest
//! printed per input, and agreement with the committed reference.
//!
//! A speed-only change may leave a ledger byte-identical (same digest) or
//! move float statistics within `rbv-ledger`'s tolerance bands; anything
//! else disagrees with the reference. Integral values (counts, sums of
//! integer cycles, hashed labels) must match exactly.

use std::collections::BTreeMap;

use rbv_ledger::tolerance_band;
use rbv_telemetry::{Json, QuantileSketch};

/// Schema tag of the committed reference file.
const REFERENCE_SCHEMA: &str = "rbv-perfbench-reference/v1";

/// FNV-1a 64-bit hash, hex-encoded: the digest of a ledger's bytes.
fn digest(bytes: &[u8]) -> String {
    format!("{:016x}", fnv1a(bytes))
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Flattens a ledger into named scalars the way `repro diff` does:
/// sketches contribute their count and p50/p99/p99.9, booleans 0/1, and
/// strings a 32-bit hash so a changed label fails the exact comparison.
pub fn flatten(doc: &Json) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    walk("", doc, &mut out);
    out
}

fn walk(prefix: &str, json: &Json, out: &mut BTreeMap<String, f64>) {
    let join = |key: &str| {
        if prefix.is_empty() {
            key.to_string()
        } else {
            format!("{prefix}.{key}")
        }
    };
    match json {
        Json::Num(v) => {
            out.insert(prefix.to_string(), *v);
        }
        Json::Bool(b) => {
            out.insert(prefix.to_string(), f64::from(u8::from(*b)));
        }
        Json::Str(s) => {
            out.insert(prefix.to_string(), (fnv1a(s.as_bytes()) >> 32) as f64);
        }
        Json::Null => {}
        Json::Arr(items) => {
            for (i, item) in items.iter().enumerate() {
                walk(&join(&i.to_string()), item, out);
            }
        }
        Json::Obj(members) => {
            if json.get("layout").is_some() {
                if let Ok(sketch) = QuantileSketch::from_json(json) {
                    out.insert(join("count"), sketch.count() as f64);
                    for (name, q) in [("p50", 0.50), ("p99", 0.99), ("p999", 0.999)] {
                        out.insert(join(name), sketch.quantile(q).unwrap_or(0.0));
                    }
                    return;
                }
            }
            for (key, value) in members {
                walk(&join(key), value, out);
            }
        }
    }
}

/// One reference entry: a ledger digest and its flattened metrics.
#[derive(Debug, Clone, PartialEq)]
pub struct Entry {
    pub digest: String,
    pub metrics: BTreeMap<String, f64>,
}

impl Entry {
    pub fn of(ledger: &Json, bytes: &[u8]) -> Entry {
        Entry {
            digest: digest(bytes),
            metrics: flatten(ledger),
        }
    }

    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("digest".into(), Json::str(self.digest.clone())),
            (
                "metrics".into(),
                Json::Obj(
                    self.metrics
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::Num(*v)))
                        .collect(),
                ),
            ),
        ])
    }

    fn from_json(json: &Json) -> Option<Entry> {
        let digest = json.get("digest")?.as_str()?.to_string();
        let metrics = json
            .get("metrics")?
            .as_object()?
            .iter()
            .map(|(k, v)| Some((k.clone(), v.as_f64()?)))
            .collect::<Option<BTreeMap<_, _>>>()?;
        Some(Entry { digest, metrics })
    }

    /// Every disagreement of `candidate` with this reference entry, as
    /// readable lines; empty when the candidate agrees.
    pub fn disagreements(&self, candidate: &Entry) -> Vec<String> {
        let mut out = Vec::new();
        for (name, &want) in &self.metrics {
            let Some(&got) = candidate.metrics.get(name) else {
                out.push(format!("{name}: missing (reference {want})"));
                continue;
            };
            let exact = want.fract() == 0.0 && want.abs() < 9.0e15;
            let bad = if exact {
                got != want
            } else {
                tolerance_band(name).breached(want, got)
            };
            if bad {
                let kind = if exact { "exact" } else { "band" };
                out.push(format!("{name}: {got} vs reference {want} ({kind})"));
            }
        }
        for name in candidate.metrics.keys() {
            if !self.metrics.contains_key(name) {
                out.push(format!("{name}: not in the reference"));
            }
        }
        out
    }
}

/// The committed reference: entries by size label, workload and seed.
#[derive(Debug, Default)]
pub struct Reference {
    entries: BTreeMap<(String, String, u64), Entry>,
}

impl Reference {
    /// Parses a reference document.
    pub fn parse(text: &str) -> Result<Reference, String> {
        let doc = Json::parse(text)?;
        if doc.get("schema").and_then(Json::as_str) != Some(REFERENCE_SCHEMA) {
            return Err(format!("reference: schema is not {REFERENCE_SCHEMA}"));
        }
        let mut entries = BTreeMap::new();
        let sizes = doc
            .get("entries")
            .and_then(Json::as_object)
            .ok_or("reference: missing entries")?;
        for (size, workloads) in sizes {
            for (workload, seeds) in workloads.as_object().ok_or("reference: bad workload")? {
                for (seed, entry) in seeds.as_object().ok_or("reference: bad seed map")? {
                    let seed: u64 = seed
                        .parse()
                        .map_err(|_| format!("reference: seed {seed}"))?;
                    let entry = Entry::from_json(entry)
                        .ok_or_else(|| format!("reference: bad entry {workload}/{seed}"))?;
                    entries.insert((size.clone(), workload.clone(), seed), entry);
                }
            }
        }
        Ok(Reference { entries })
    }

    pub fn get(&self, size: &str, workload: &str, seed: u64) -> Option<&Entry> {
        self.entries
            .get(&(size.to_string(), workload.to_string(), seed))
    }

    pub fn insert(&mut self, size: &str, workload: &str, seed: u64, entry: Entry) {
        self.entries
            .insert((size.to_string(), workload.to_string(), seed), entry);
    }

    pub fn to_json(&self) -> Json {
        let mut sizes: Vec<(String, Json)> = Vec::new();
        for ((size, workload, seed), entry) in &self.entries {
            if sizes.last().map(|(s, _)| s) != Some(size) {
                sizes.push((size.clone(), Json::Obj(Vec::new())));
            }
            let Some((_, Json::Obj(workloads))) = sizes.last_mut() else {
                unreachable!("just pushed an object");
            };
            if workloads.last().map(|(w, _)| w) != Some(workload) {
                workloads.push((workload.clone(), Json::Obj(Vec::new())));
            }
            let Some((_, Json::Obj(seeds))) = workloads.last_mut() else {
                unreachable!("just pushed an object");
            };
            seeds.push((seed.to_string(), entry.to_json()));
        }
        Json::Obj(vec![
            ("schema".into(), Json::str(REFERENCE_SCHEMA)),
            ("entries".into(), Json::Obj(sizes)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ledger(count: f64, p: f64, label: &str) -> Json {
        Json::Obj(vec![
            ("completed".into(), Json::Num(count)),
            ("goodput_frac".into(), Json::Num(p)),
            ("final_rung".into(), Json::str(label)),
        ])
    }

    #[test]
    fn counts_are_exact_and_floats_use_the_ledger_bands() {
        let base = ledger(100.0, 0.5, "easing");
        let reference = Entry::of(&base, b"x");
        assert!(reference.disagreements(&Entry::of(&base, b"x")).is_empty());
        // A float inside its band agrees; outside it does not.
        assert!(reference
            .disagreements(&Entry::of(&ledger(100.0, 0.505, "easing"), b"y"))
            .is_empty());
        assert_eq!(
            reference
                .disagreements(&Entry::of(&ledger(100.0, 0.6, "easing"), b"y"))
                .len(),
            1
        );
        // Counts and labels must match exactly.
        assert_eq!(
            reference
                .disagreements(&Entry::of(&ledger(101.0, 0.5, "easing"), b"y"))
                .len(),
            1
        );
        assert_eq!(
            reference
                .disagreements(&Entry::of(&ledger(100.0, 0.5, "stock"), b"y"))
                .len(),
            1
        );
    }

    #[test]
    fn reference_round_trips_through_json() {
        let mut r = Reference::default();
        r.insert(
            "tiny",
            "serve-web",
            3,
            Entry::of(&ledger(5.0, 0.25, "a"), b"a"),
        );
        r.insert(
            "tiny",
            "serve-web",
            4,
            Entry::of(&ledger(6.0, 0.25, "a"), b"b"),
        );
        r.insert(
            "full",
            "classify-tpcc",
            0,
            Entry::of(&ledger(7.0, 0.75, "a"), b"c"),
        );
        let back = Reference::parse(&r.to_json().to_string_compact()).unwrap();
        assert_eq!(back.entries, r.entries);
    }
}
