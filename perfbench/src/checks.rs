//! Output checks. Each one is built from an independent computation or
//! a property the output must have — never from a stored copy of an
//! earlier run's output.

use crate::stats::fnv64;
use serving::engine::ServeStats;
use std::collections::{BTreeMap, HashMap, HashSet};

/// The raw text of field `key` in a flat JSON object line: a number up
/// to the next `,`/`}`, or a string's contents without quotes.
fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":");
    let start = line.find(&pat)? + pat.len();
    let rest = line[start..].trim_start();
    if let Some(s) = rest.strip_prefix('"') {
        let mut escaped = false;
        for (i, c) in s.char_indices() {
            match c {
                '\\' if !escaped => escaped = true,
                '"' if !escaped => return Some(&s[..i]),
                _ => escaped = false,
            }
        }
        return None;
    }
    let end = rest.find([',', '}', '\n']).unwrap_or(rest.len());
    Some(rest[..end].trim())
}

/// The number in field `key` of a flat JSON object line.
pub fn num_field<T: std::str::FromStr>(line: &str, key: &str) -> Result<T, String> {
    let raw = field(line, key).ok_or_else(|| format!("missing \"{key}\" in {line}"))?;
    raw.parse().map_err(|_| format!("bad \"{key}\" value '{raw}' in {line}"))
}

/// One verdict line, as much of it as the checks use.
#[derive(Debug, Clone, PartialEq)]
pub struct Verdict {
    /// Flow id (sequence number of the opening packet).
    pub flow: u64,
    /// `first_ts` exactly as printed.
    pub first_ts: String,
    /// Packets the flow carried.
    pub packets: u64,
    /// Predicted label.
    pub label: u16,
}

/// Parse a JSONL verdict stream.
pub fn parse_verdicts(stream: &[u8]) -> Result<Vec<Verdict>, String> {
    let text = std::str::from_utf8(stream).map_err(|e| format!("verdicts not UTF-8: {e}"))?;
    text.lines()
        .map(|line| {
            Ok(Verdict {
                flow: num_field(line, "flow")?,
                first_ts: field(line, "first_ts")
                    .ok_or_else(|| format!("missing first_ts in {line}"))?
                    .to_string(),
                packets: num_field(line, "packets")?,
                label: num_field(line, "label")?,
            })
        })
        .collect()
}

/// Frames whose EtherType is neither IPv4 nor IPv6, counted from the
/// raw bytes without the program's parser.
pub fn count_non_ip(frames: impl IntoIterator<Item = impl AsRef<[u8]>>) -> u64 {
    frames
        .into_iter()
        .filter(|f| {
            let f = f.as_ref();
            f.len() < 14 || !matches!(u16::from_be_bytes([f[12], f[13]]), 0x0800 | 0x86dd)
        })
        .count() as u64
}

/// Check one replay's verdict stream and counters against the replay
/// itself: packet conservation, flow accounting, and that every
/// verdict's flow id names the packet that opened it.
pub fn check_replay(
    stream: &[u8],
    stats: &ServeStats,
    ts: &[f64],
    non_ip: u64,
) -> Result<Vec<Verdict>, String> {
    let n = ts.len() as u64;
    if stats.packets != n {
        return Err(format!("served {} packets, the trace has {n}", stats.packets));
    }
    if stats.non_ip != non_ip {
        return Err(format!(
            "engine counted {} non-IP frames, the trace has {non_ip} non-IP EtherTypes",
            stats.non_ip
        ));
    }
    if stats.verdicts + stats.dropped != stats.flows {
        return Err(format!(
            "{} verdicts + {} drops != {} flows opened",
            stats.verdicts, stats.dropped, stats.flows
        ));
    }
    let verdicts = parse_verdicts(stream)?;
    if verdicts.len() as u64 != stats.verdicts {
        return Err(format!("{} verdict lines, stats say {}", verdicts.len(), stats.verdicts));
    }
    let served: u64 = verdicts.iter().map(|v| v.packets).sum();
    if served != n - non_ip {
        return Err(format!("verdicts cover {served} packets, the trace has {} IP", n - non_ip));
    }
    let mut seen = HashSet::with_capacity(verdicts.len());
    for v in &verdicts {
        let Some(&t) = ts.get(v.flow as usize) else {
            return Err(format!("verdict flow {} beyond the {n}-packet trace", v.flow));
        };
        if format!("{t:.6}") != v.first_ts {
            return Err(format!(
                "flow {}: first_ts {} but packet {} is at {t:.6}",
                v.flow, v.first_ts, v.flow
            ));
        }
        if !seen.insert(v.flow) {
            return Err(format!("flow {} has two verdicts", v.flow));
        }
    }
    Ok(verdicts)
}

/// Labels recomputed outside the engine must equal the served ones,
/// flow by flow.
pub fn check_labels(served: &[Verdict], recomputed: &HashMap<u64, u16>) -> Result<(), String> {
    if served.len() != recomputed.len() {
        return Err(format!(
            "{} served verdicts, {} recomputed flows",
            served.len(),
            recomputed.len()
        ));
    }
    for v in served {
        match recomputed.get(&v.flow) {
            Some(&l) if l == v.label => {}
            Some(&l) => {
                return Err(format!("flow {}: served label {}, recomputed {l}", v.flow, v.label))
            }
            None => return Err(format!("flow {} served but never recomputed", v.flow)),
        }
    }
    Ok(())
}

/// Every record of a result file has finite accuracy and macro-F1 in
/// [0, 100], and there are `expected` of them.
pub fn check_records(json: &str, expected: usize) -> Result<(), String> {
    for key in ["accuracy", "macro_f1"] {
        let pat = format!("\"{key}\":");
        let values: Vec<&str> = json
            .match_indices(&pat)
            .map(|(i, _)| {
                let rest = json[i + pat.len()..].trim_start();
                let end = rest.find([',', '}', '\n']).unwrap_or(rest.len());
                rest[..end].trim()
            })
            .collect();
        if values.len() != expected {
            return Err(format!("{} {key} values, expected {expected}", values.len()));
        }
        for raw in values {
            let v: f64 = raw.parse().map_err(|_| format!("bad {key} '{raw}'"))?;
            if !(v.is_finite() && (0.0..=100.0).contains(&v)) {
                return Err(format!("{key} {raw} outside [0, 100]"));
            }
        }
    }
    Ok(())
}

/// One executed cell, from the run journal.
#[derive(Debug, Clone, PartialEq)]
pub struct CellOutcome {
    /// Model column.
    pub model: String,
    /// Setting column.
    pub setting: String,
    /// The cell's serialised output, verbatim.
    pub output: String,
}

/// Every `done` cell of a run journal with its model and setting.
pub fn journal_cells(journal: &str) -> Result<Vec<CellOutcome>, String> {
    let mut names: HashMap<String, (String, String)> = HashMap::new();
    let mut cells = Vec::new();
    for line in journal.lines() {
        match field(line, "status") {
            Some("started") => {
                let cell = field(line, "cell").ok_or("started line without cell")?;
                let model = field(line, "model").ok_or("started line without model")?;
                let setting = field(line, "setting").ok_or("started line without setting")?;
                names.insert(cell.to_string(), (model.to_string(), setting.to_string()));
            }
            Some("done") => {
                let cell = field(line, "cell").ok_or("done line without cell")?;
                let (model, setting) =
                    names.get(cell).ok_or_else(|| format!("cell {cell} done before started"))?;
                let at = line.find("\"output\":").ok_or("done line without output")?;
                let output = line[at + "\"output\":".len()..].trim_end();
                let output = output.strip_suffix('}').ok_or("unterminated done line")?;
                cells.push(CellOutcome {
                    model: model.clone(),
                    setting: setting.clone(),
                    output: output.to_string(),
                });
            }
            _ => {}
        }
    }
    Ok(cells)
}

/// One digest per model: its cells' outputs (in setting order) plus
/// the digest of its pre-trained encoder, when it has one.
pub fn group_digests(cells: &[CellOutcome], probes: &[(String, u64)]) -> BTreeMap<String, u64> {
    let mut parts: BTreeMap<String, Vec<String>> = BTreeMap::new();
    for c in cells {
        parts.entry(c.model.clone()).or_default().push(format!("{}={}", c.setting, c.output));
    }
    for (model, digest) in probes {
        parts.entry(model.clone()).or_default().push(format!("encoder={digest:016x}"));
    }
    parts
        .into_iter()
        .map(|(model, mut items)| {
            items.sort();
            (model, fnv64(items.join(";").into_bytes()))
        })
        .collect()
}

/// Models whose digest differs from (or is missing against) the
/// reference.
pub fn mismatched_groups(
    reference: &BTreeMap<String, u64>,
    got: &BTreeMap<String, u64>,
) -> Vec<String> {
    let mut bad: Vec<String> =
        reference.iter().filter(|(m, d)| got.get(*m) != Some(d)).map(|(m, _)| m.clone()).collect();
    bad.extend(got.keys().filter(|m| !reference.contains_key(*m)).cloned());
    bad
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(flow: u64, first_ts: f64, packets: u64, label: u16) -> String {
        format!(
            "{{\"flow\":{flow},\"first_ts\":{first_ts:.6},\"last_ts\":{first_ts:.6},\
             \"packets\":{packets},\"bytes\":100,\"proto\":6,\"target\":\"forest\",\
             \"label\":{label},\"class\":\"a\\\"b\",\"epoch\":0}}\n"
        )
    }

    /// Five packets: flows open at 0 and 2, packet 3 is ARP.
    fn fixture() -> (Vec<u8>, ServeStats, Vec<f64>, u64) {
        let ts = vec![0.5, 0.75, 1.25, 1.5, 2.0];
        let stream = [line(2, 1.25, 1, 3), line(0, 0.5, 3, 1)].concat().into_bytes();
        let stats =
            ServeStats { packets: 5, non_ip: 1, flows: 2, verdicts: 2, ..Default::default() };
        (stream, stats, ts, 1)
    }

    #[test]
    fn honest_replay_passes() {
        let (stream, stats, ts, non_ip) = fixture();
        let v = check_replay(&stream, &stats, &ts, non_ip).unwrap();
        assert_eq!(v.len(), 2);
        assert_eq!((v[1].flow, v[1].packets, v[1].label), (0, 3, 1));
    }

    #[test]
    fn tampered_streams_fail() {
        let (stream, stats, ts, non_ip) = fixture();
        let text = String::from_utf8(stream.clone()).unwrap();
        let tampered = [
            text.replace("\"packets\":3", "\"packets\":2"),
            text.replace("\"flow\":2", "\"flow\":1"),
            text.replace("\"first_ts\":0.500000", "\"first_ts\":0.500001"),
            text.replace("\"flow\":2", "\"flow\":9"),
            text.lines().next().unwrap().to_string() + "\n",
            text.replace("\"flow\":2", "\"flow\":0").replace("1.250000", "0.500000"),
            text.replace("\"label\":3", "\"label\":x"),
        ];
        for t in &tampered {
            assert!(check_replay(t.as_bytes(), &stats, &ts, non_ip).is_err(), "{t}");
        }
        let bad_stats = [
            ServeStats { packets: 4, ..stats },
            ServeStats { non_ip: 0, ..stats },
            ServeStats { flows: 3, ..stats },
            ServeStats { verdicts: 1, dropped: 1, ..stats },
        ];
        for s in &bad_stats {
            assert!(check_replay(&stream, s, &ts, non_ip).is_err(), "{s:?}");
        }
    }

    #[test]
    fn non_ip_counts_ethertypes() {
        let mut v4 = vec![0u8; 34];
        v4[12..14].copy_from_slice(&[0x08, 0x00]);
        let mut v6 = vec![0u8; 54];
        v6[12..14].copy_from_slice(&[0x86, 0xdd]);
        let mut arp = vec![0u8; 42];
        arp[12..14].copy_from_slice(&[0x08, 0x06]);
        assert_eq!(count_non_ip([v4, v6, arp, vec![0u8; 5]]), 2);
    }

    #[test]
    fn recomputed_labels_must_match() {
        let (stream, ..) = fixture();
        let served = parse_verdicts(&stream).unwrap();
        let good: HashMap<u64, u16> = [(2, 3), (0, 1)].into();
        assert!(check_labels(&served, &good).is_ok());
        let wrong: HashMap<u64, u16> = [(2, 3), (0, 2)].into();
        assert!(check_labels(&served, &wrong).is_err());
        let missing: HashMap<u64, u16> = [(2, 3), (5, 1)].into();
        assert!(check_labels(&served, &missing).is_err());
        let short: HashMap<u64, u16> = [(2, 3)].into();
        assert!(check_labels(&served, &short).is_err());
    }

    const RECORDS: &str = "[\n  {\n    \"model\": \"YaTC\",\n    \"accuracy\": 15.6,\n    \
                           \"macro_f1\": 14.3,\n    \"train_secs\": 0.0\n  },\n  {\n    \
                           \"accuracy\": 100,\n    \"macro_f1\": 0.0\n  }\n]";

    #[test]
    fn records_in_range_pass_and_tampered_fail() {
        assert!(check_records(RECORDS, 2).is_ok());
        assert!(check_records(RECORDS, 3).is_err());
        for bad in ["100.5", "-0.1", "NaN", "inf", "x"] {
            let t = RECORDS.replace("15.6", bad);
            assert!(check_records(&t, 2).is_err(), "{bad}");
        }
        assert!(check_records(&RECORDS.replace("14.3", "101"), 2).is_err());
    }

    const JOURNAL: &str = "{\"status\":\"run\",\"version\":1}\n\
        {\"status\":\"started\",\"cell\":\"a\",\"attempt\":1,\"model\":\"RF\",\"setting\":\"per-flow\"}\n\
        {\"status\":\"done\",\"cell\":\"a\",\"attempt\":1,\"output\":{\"stats\":{\"accuracy\":0.5}}}\n\
        {\"status\":\"started\",\"cell\":\"b\",\"attempt\":1,\"model\":\"YaTC\",\"setting\":\"frozen\"}\n\
        {\"status\":\"done\",\"cell\":\"b\",\"attempt\":1,\"output\":{\"stats\":{\"accuracy\":0.25}}}\n";

    #[test]
    fn journal_groups_and_tampering() {
        let cells = journal_cells(JOURNAL).unwrap();
        assert_eq!(cells.len(), 2);
        assert_eq!(cells[1].output, "{\"stats\":{\"accuracy\":0.25}}");
        let probes = vec![("YaTC".to_string(), 7u64)];
        let reference = group_digests(&cells, &probes);
        assert!(mismatched_groups(&reference, &group_digests(&cells, &probes)).is_empty());

        let tampered = journal_cells(&JOURNAL.replace("0.25", "0.26")).unwrap();
        assert_eq!(mismatched_groups(&reference, &group_digests(&tampered, &probes)), ["YaTC"]);
        let other_probe = vec![("YaTC".to_string(), 8u64)];
        assert_eq!(mismatched_groups(&reference, &group_digests(&cells, &other_probe)), ["YaTC"]);
        assert_eq!(mismatched_groups(&reference, &group_digests(&cells[..1], &[])), ["YaTC"]);
        assert!(journal_cells(&JOURNAL.replace("\"started\",\"cell\":\"b\"", "\"x\"")).is_err());
    }
}
