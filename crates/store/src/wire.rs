//! Snapshot wire encode/decode (layout in `format.rs` / DESIGN.md §7).

use crate::format::{
    checksum, CHECKSUM_LEN, FLAG_INTRODUCERS, FLAG_IPV4, FLAG_IPV6, FLAG_MASK, MAGIC,
    SEGMENT_TAG, TRAILER_TAG, VERSION,
};
use crate::snapshot::{mode_from_tag, mode_tag, DaySegment, Snapshot, SnapshotMeta, WireRecords};
use crate::StoreError;
use i2p_data::codec::{DecodeError, Reader, Writer};
use i2p_data::{Caps, CapsString, Hash256, PeerIp};
use i2p_measure::fleet::Vantage;
use i2p_measure::observed::ObservedRouterInfo;

/// Checked `usize → u32` length narrowing: the wire format's length
/// fields must never wrap silently — a truncated length would still
/// checksum cleanly and corrupt the archive undetectably.
fn len_u32(len: usize, region: &'static str) -> Result<u32, StoreError> {
    u32::try_from(len).map_err(|_| StoreError::TooLarge { region, len })
}

/// Checked `usize → u16` count narrowing (see [`len_u32`]).
fn len_u16(len: usize, region: &'static str) -> Result<u16, StoreError> {
    u16::try_from(len).map_err(|_| StoreError::TooLarge { region, len })
}

pub(crate) fn encode(snap: &Snapshot) -> Result<Vec<u8>, StoreError> {
    let mut w = Writer::new();
    w.bytes(&MAGIC);
    w.u16(VERSION);

    // Header: world + fleet metadata, independently checksummed.
    let header = encode_header(snap.meta())?;
    w.u32(len_u32(header.len(), "snapshot.header-len")?);
    w.bytes(&header);
    w.bytes(&checksum(&header));

    // One segment per harvested day.
    for seg in &snap.days {
        let body = encode_segment(seg);
        w.u8(SEGMENT_TAG);
        w.u32(len_u32(body.len(), "snapshot.segment-len")?);
        w.bytes(&body);
        w.bytes(&checksum(&body));
    }

    // Trailer: whole-file checksum over everything before the tag.
    let mut out = w.into_bytes();
    let file_sum = checksum(&out);
    out.push(TRAILER_TAG);
    out.extend_from_slice(&file_sum);
    Ok(out)
}

fn encode_header(meta: &SnapshotMeta) -> Result<Vec<u8>, StoreError> {
    let mut w = Writer::new();
    w.u64(meta.world_days);
    w.u64(meta.world_scale.to_bits());
    w.u64(meta.world_seed);
    w.u64(meta.total_peers);
    w.u64(meta.day_start);
    w.u32(meta.n_days);
    w.u16(len_u16(meta.vantages.len(), "header.n-vantages")?);
    for v in &meta.vantages {
        w.u8(mode_tag(v.mode));
        w.u32(v.shared_kbps);
        w.u64(v.salt);
    }
    Ok(w.into_bytes())
}

fn encode_segment(seg: &DaySegment) -> Vec<u8> {
    let mut w = Writer::new();
    w.u64(seg.day);
    // The observed-router table, ascending by peer id: delta-varint ids,
    // the peer hash, the exact observed caps letters, address fields,
    // and the full RouterInfo wire record.
    w.varint(seg.observations.len() as u64);
    let mut prev_id = 0u32;
    for (i, (obs, ri)) in seg.observations.iter().zip(seg.router_infos.iter()).enumerate() {
        let delta = if i == 0 { obs.peer_id as u64 } else { (obs.peer_id - prev_id) as u64 };
        w.varint(delta);
        prev_id = obs.peer_id;
        w.bytes(&obs.hash.0);
        w.string(&obs.caps);
        let mut flags = 0u8;
        if obs.ipv4.is_some() {
            flags |= FLAG_IPV4;
        }
        if obs.ipv6.is_some() {
            flags |= FLAG_IPV6;
        }
        if obs.has_introducers {
            flags |= FLAG_INTRODUCERS;
        }
        w.u8(flags);
        if let Some(ip) = obs.ipv4 {
            encode_ip(&mut w, ip);
        }
        if let Some(ip) = obs.ipv6 {
            encode_ip(&mut w, ip);
        }
        w.varint(ri.len() as u64);
        w.bytes(ri);
    }
    // Per-vantage sighting sets as strictly-ascending position runs.
    for lane in &seg.lanes {
        let mut positions = Vec::new();
        for (j, &word) in lane.iter().enumerate() {
            let mut wrd = word;
            while wrd != 0 {
                positions.push((j * 64 + wrd.trailing_zeros() as usize) as u32);
                wrd &= wrd - 1;
            }
        }
        w.id_run(&positions);
    }
    w.into_bytes()
}

fn encode_ip(w: &mut Writer, ip: PeerIp) {
    match ip {
        PeerIp::V4(v) => {
            w.u8(4);
            w.u32(v);
        }
        PeerIp::V6(v) => {
            w.u8(6);
            w.u64((v >> 64) as u64);
            w.u64(v as u64);
        }
    }
}

/// What happened while loading a damaged snapshot through the
/// recovering decoder ([`crate::Snapshot::from_bytes_recover`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Days the header promised.
    pub expected_days: u32,
    /// Days actually recovered (a contiguous prefix).
    pub recovered_days: u32,
    /// Bytes quarantined after the first damaged element.
    pub quarantined_bytes: usize,
    /// What stopped the strict walk, or `None` for an intact file.
    pub damage: Option<&'static str>,
}

impl RecoveryReport {
    /// Whether the file loaded with no damage at all.
    pub fn is_intact(&self) -> bool {
        self.damage.is_none()
    }
}

impl std::fmt::Display for RecoveryReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.damage {
            None => write!(f, "intact ({} days)", self.recovered_days),
            Some(what) => write!(
                f,
                "recovered {}/{} days, quarantined {} bytes ({what})",
                self.recovered_days, self.expected_days, self.quarantined_bytes
            ),
        }
    }
}

/// One top-level file element.
enum Element {
    Segment(DaySegment),
    Trailer,
}

/// Reads one tagged element — a checksummed day segment or the trailer
/// (which also closes the file: whole-file checksum, no trailing bytes).
fn read_element(
    r: &mut Reader<'_>,
    bytes: &[u8],
    n_vantages: usize,
) -> Result<Element, StoreError> {
    match r.u8("snapshot.tag")? {
        SEGMENT_TAG => {
            let body_len = r.u32("snapshot.segment-len")? as usize;
            let body = r.bytes(body_len, "snapshot.segment")?;
            if r.bytes(CHECKSUM_LEN, "snapshot.segment-checksum")? != checksum(body).as_slice() {
                return Err(StoreError::Corrupt { what: "segment checksum" });
            }
            Ok(Element::Segment(decode_segment(body.to_vec(), n_vantages)?))
        }
        TRAILER_TAG => {
            // Position bookkeeping: the checksum covers everything
            // before the trailer tag.
            let covered = bytes.len() - r.remaining() - 1;
            if r.bytes(CHECKSUM_LEN, "snapshot.trailer-checksum")?
                != checksum(&bytes[..covered]).as_slice()
            {
                return Err(StoreError::Corrupt { what: "file checksum" });
            }
            if !r.is_empty() {
                return Err(StoreError::Corrupt { what: "trailing bytes" });
            }
            Ok(Element::Trailer)
        }
        _ => Err(StoreError::Corrupt { what: "unknown tag" }),
    }
}

/// Reads the mandatory prelude: magic, version, checksummed header.
/// Damage here is unrecoverable — without the header there is no world
/// or fleet identity to recover a prefix against.
pub(crate) fn decode_prelude<'a>(r: &mut Reader<'a>) -> Result<SnapshotMeta, StoreError> {
    if r.bytes(MAGIC.len(), "snapshot.magic")? != MAGIC.as_slice() {
        return Err(StoreError::Corrupt { what: "magic" });
    }
    let version = r.u16("snapshot.version")?;
    if version != VERSION {
        return Err(StoreError::UnsupportedVersion { found: version });
    }
    let header_len = r.u32("snapshot.header-len")? as usize;
    let header = r.bytes(header_len, "snapshot.header")?;
    if r.bytes(CHECKSUM_LEN, "snapshot.header-checksum")? != checksum(header).as_slice() {
        return Err(StoreError::Corrupt { what: "header checksum" });
    }
    decode_header(header)
}

pub(crate) fn decode(bytes: &[u8]) -> Result<Snapshot, StoreError> {
    let mut r = Reader::new(bytes);
    let meta = decode_prelude(&mut r)?;

    if meta.n_days as usize > r.remaining() {
        // Every day segment costs well over one byte (tag + length +
        // checksum); bound the capacity hint by what the file can hold
        // so a hostile header cannot force a huge allocation.
        return Err(StoreError::Corrupt { what: "day count" });
    }
    let mut days = Vec::with_capacity(meta.n_days as usize);
    while let Element::Segment(seg) = read_element(&mut r, bytes, meta.vantages.len())? {
        days.push(seg);
    }
    if days.len() != meta.n_days as usize {
        return Err(StoreError::Corrupt { what: "day count" });
    }
    let start = meta.day_start;
    for (i, seg) in days.iter().enumerate() {
        if seg.day != start + i as u64 {
            return Err(StoreError::Corrupt { what: "day sequence" });
        }
    }
    Ok(Snapshot::from_parts(meta, days))
}

/// The recovering decoder: strict about the prelude, then keeps every
/// valid, contiguous day segment up to the first damaged element and
/// quarantines the rest of the file. An undamaged file loads exactly as
/// [`decode`] would, with an intact report.
pub(crate) fn decode_recover(bytes: &[u8]) -> Result<(Snapshot, RecoveryReport), StoreError> {
    let mut r = Reader::new(bytes);
    let mut meta = decode_prelude(&mut r)?;
    let expected = meta.n_days;

    let mut days: Vec<DaySegment> = Vec::new();
    let mut damage: Option<&'static str> = None;
    let mut quarantined = 0usize;
    loop {
        let consumed = bytes.len() - r.remaining();
        match read_element(&mut r, bytes, meta.vantages.len()) {
            Ok(Element::Trailer) => {
                if days.len() != expected as usize {
                    damage = Some("day count");
                }
                break;
            }
            Ok(Element::Segment(seg)) => {
                let in_sequence = seg.day == meta.day_start + days.len() as u64;
                if days.len() == expected as usize || !in_sequence {
                    damage = Some(if in_sequence { "day count" } else { "day sequence" });
                    quarantined = bytes.len() - consumed;
                    break;
                }
                days.push(seg);
            }
            Err(e) => {
                damage = Some(damage_label(&e));
                quarantined = bytes.len() - consumed;
                break;
            }
        }
    }
    let report = RecoveryReport {
        expected_days: expected,
        recovered_days: days.len() as u32,
        quarantined_bytes: quarantined,
        damage,
    };
    meta.n_days = days.len() as u32;
    Ok((Snapshot::from_parts(meta, days), report))
}

fn damage_label(e: &StoreError) -> &'static str {
    match e {
        StoreError::Corrupt { what } => what,
        StoreError::Decode(_) => "truncated element",
        _ => "damaged element",
    }
}

fn decode_header(bytes: &[u8]) -> Result<SnapshotMeta, StoreError> {
    let mut r = Reader::new(bytes);
    let world_days = r.u64("header.world-days")?;
    let world_scale = f64::from_bits(r.u64("header.world-scale")?);
    let world_seed = r.u64("header.world-seed")?;
    let total_peers = r.u64("header.total-peers")?;
    let day_start = r.u64("header.day-start")?;
    let n_days = r.u32("header.n-days")?;
    let n_vantages = r.u16("header.n-vantages")? as usize;
    let mut vantages = Vec::with_capacity(n_vantages);
    for _ in 0..n_vantages {
        let mode = mode_from_tag(r.u8("header.vantage-mode")?)?;
        let shared_kbps = r.u32("header.vantage-bandwidth")?;
        let salt = r.u64("header.vantage-salt")?;
        vantages.push(Vantage { mode, shared_kbps, salt });
    }
    if !r.is_empty() {
        return Err(StoreError::Corrupt { what: "header trailing bytes" });
    }
    Ok(SnapshotMeta {
        world_days,
        world_scale,
        world_seed,
        total_peers,
        vantages,
        day_start,
        n_days,
    })
}

/// Decodes one checksummed segment body. The segment keeps `body`: its
/// RouterInfo records are located in it, not copied out.
pub(crate) fn decode_segment(body: Vec<u8>, n_vantages: usize) -> Result<DaySegment, StoreError> {
    let mut r = Reader::new(&body);
    let day = r.u64("segment.day")?;
    let n_rows = r.varint("segment.row-count")? as usize;
    if n_rows > r.remaining() {
        // Every row costs well over one byte; bail before allocating.
        return Err(StoreError::Corrupt { what: "row count" });
    }
    let mut observations = Vec::with_capacity(n_rows);
    let mut spans = Vec::with_capacity(n_rows);
    let mut prev_id = 0u64;
    for i in 0..n_rows {
        let delta = r.varint("row.id-delta")?;
        if (i > 0 && delta == 0) || delta > u32::MAX as u64 {
            return Err(StoreError::Corrupt { what: "row id order" });
        }
        let peer_id = if i == 0 { delta } else { prev_id + delta };
        if peer_id > u32::MAX as u64 {
            return Err(StoreError::Corrupt { what: "row id range" });
        }
        prev_id = peer_id;
        let hash = Hash256(r.array32("row.hash")?);
        // Borrowed, not copied into a `String`: the letters go straight
        // into the row's inline `CapsString`.
        let caps_len = r.u8("row.caps")? as usize;
        let caps = std::str::from_utf8(r.bytes(caps_len, "row.caps")?)
            .map_err(|_| DecodeError::Invalid { what: "row.caps" })?;
        if caps.len() > CapsString::CAPACITY || !caps.is_ascii() {
            return Err(StoreError::Corrupt { what: "row caps length" });
        }
        if Caps::parse(caps).is_err() {
            return Err(StoreError::Corrupt { what: "row caps letters" });
        }
        let flags = r.u8("row.flags")?;
        if flags & !FLAG_MASK != 0 {
            return Err(StoreError::Corrupt { what: "row flags" });
        }
        let ipv4 =
            if flags & FLAG_IPV4 != 0 { Some(decode_ip(&mut r, "row.ipv4")?) } else { None };
        let ipv6 =
            if flags & FLAG_IPV6 != 0 { Some(decode_ip(&mut r, "row.ipv6")?) } else { None };
        let ri_len = r.varint("row.routerinfo-len")? as usize;
        let ri_start = body.len() - r.remaining();
        r.bytes(ri_len, "row.routerinfo")?;
        observations.push(ObservedRouterInfo {
            hash,
            peer_id: peer_id as u32,
            caps: CapsString::from(caps),
            ipv4,
            ipv6,
            has_introducers: flags & FLAG_INTRODUCERS != 0,
            day,
        });
        spans.push((ri_start, ri_start + ri_len));
    }
    let words = n_rows.div_ceil(64);
    let mut lanes = Vec::with_capacity(n_vantages);
    for _ in 0..n_vantages {
        let positions = r.id_run("segment.lane")?;
        let mut lane = vec![0u64; words];
        for pos in positions {
            let pos = pos as usize;
            if pos >= n_rows {
                return Err(StoreError::Corrupt { what: "lane position" });
            }
            lane[pos / 64] |= 1u64 << (pos % 64);
        }
        lanes.push(lane);
    }
    if !r.is_empty() {
        return Err(StoreError::Corrupt { what: "segment trailing bytes" });
    }
    let router_infos = WireRecords::in_body(body, spans);
    Ok(DaySegment { day, observations, router_infos, lanes, words })
}

fn decode_ip(r: &mut Reader<'_>, what: &'static str) -> Result<PeerIp, StoreError> {
    match r.u8(what)? {
        4 => Ok(PeerIp::V4(r.u32(what)?)),
        6 => {
            let hi = r.u64(what)? as u128;
            let lo = r.u64(what)? as u128;
            Ok(PeerIp::V6(hi << 64 | lo))
        }
        _ => Err(StoreError::Corrupt { what: "ip kind" }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use i2p_measure::engine::HarvestEngine;
    use i2p_measure::fleet::Fleet;
    use i2p_sim::world::{World, WorldConfig};

    #[test]
    fn row_caps_fields_are_checked_in_place() {
        // One day's segment body, and a copy of it per caps field: the
        // first row's caps follow its id delta and 32-byte hash.
        let world = World::generate(WorldConfig { days: 1, scale: 0.01, seed: 99 });
        let engine = HarvestEngine::build(&world, &Fleet::alternating(2), 0..1);
        let seg = &Snapshot::capture(&engine).days[0];
        let body = encode_segment(seg);
        let mut r = Reader::new(&body);
        r.u64("day").expect("day");
        r.varint("rows").expect("row count");
        r.varint("delta").expect("id delta");
        r.array32("hash").expect("hash");
        let at = body.len() - r.remaining();
        let tail = at + 1 + seg.observations[0].caps.len();
        let with_caps = |field: &[u8]| {
            decode_segment([&body[..at], field, &body[tail..]].concat(), 2)
        };
        let caps = seg.observations[0].caps;
        let field = [&[caps.len() as u8][..], caps.as_bytes()].concat();
        let back = with_caps(&field).expect("the encoded caps decode");
        assert_eq!(back.observations, seg.observations);
        let err = |field: &[u8]| with_caps(field).err().map(|e| e.to_string());
        let decode = |e: DecodeError| Some(StoreError::Decode(e).to_string());
        let corrupt = |what| Some(StoreError::Corrupt { what }.to_string());
        assert_eq!(err(&[2, 0xC3, 0x28]), decode(DecodeError::Invalid { what: "row.caps" }));
        assert_eq!(err(b"\x07OfRUHPX"), corrupt("row caps length"));
        assert_eq!(err("\u{2}é".as_bytes()), corrupt("row caps length"));
        assert_eq!(err(b"\x02fZ"), corrupt("row caps letters"));
        // A one-row body that ends inside the caps letters.
        let mut w = Writer::new();
        w.u64(0);
        w.varint(1);
        w.varint(5);
        w.bytes(&[0; 32]);
        w.bytes(b"\x04OR");
        let cut = decode_segment(w.into_bytes(), 2).err().map(|e| e.to_string());
        assert_eq!(cut, decode(DecodeError::Truncated { what: "row.caps" }));
    }
}
