//! Every one of the 63 testbed zones — including the deliberately broken
//! ones — renders as a master file with one line per record, each line
//! naming its record's owner, TTL, class and type.

use ede_testbed::build::materialize_child_zone;
use ede_testbed::domains::all_specs;
use ede_wire::{Name, Record, RrType};
use ede_zone::textual::zone_to_master_file;
use ede_zone::Zone;

/// The zone's records in the printer's order: the apex SOA first, then
/// every RRset in canonical order, each set's data before its RRSIGs.
fn records_in_print_order(zone: &Zone) -> Vec<Record> {
    let is_apex_soa = |name: &Name, rtype| rtype == RrType::Soa && name == zone.apex();
    zone.soa()
        .into_iter()
        .chain(zone.iter().filter(|set| !is_apex_soa(&set.name, set.rtype)))
        .flat_map(|set| set.records().chain(set.sig_records()))
        .collect()
}

#[test]
fn all_63_zones_render_one_line_per_record() {
    let base = Name::parse("extended-dns-errors.com").unwrap();
    let specs = all_specs();
    assert_eq!(specs.len(), 63);
    for (idx, spec) in specs.iter().enumerate() {
        let (zone, _ds) = materialize_child_zone(spec, &base, idx);
        let text = zone_to_master_file(&zone);
        let mut lines = text.lines();
        assert_eq!(
            lines.next(),
            Some(format!("$ORIGIN {}", zone.apex()).as_str()),
            "{}",
            spec.label
        );
        let lines: Vec<&str> = lines.collect();
        let records = records_in_print_order(&zone);
        assert!(!records.is_empty(), "{}", spec.label);
        assert_eq!(lines.len(), records.len(), "{}:\n{text}", spec.label);
        for (line, record) in lines.iter().zip(&records) {
            let fields: Vec<&str> = line.split_whitespace().take(4).collect();
            let expected = [
                record.name.to_string(),
                record.ttl.to_string(),
                record.class.to_string(),
                record.rtype().to_string(),
            ];
            assert_eq!(fields, expected, "{}: {line}", spec.label);
        }
    }
}
