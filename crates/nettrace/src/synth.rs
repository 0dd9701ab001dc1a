//! Seeded synthetic packet traces standing in for the paper's captures.
//!
//! Table I of the paper lists four traces: three NLANR captures from
//! backbone/access links (MRA on OC-12c PoS, COS and ODU on OC-3c ATM) and
//! a local 100 Mb/s Ethernet LAN capture. NLANR traces number IP addresses
//! incrementally starting at `10.0.0.1` in order of appearance, which the
//! paper then *scrambles* to get uniform routing-table coverage (§IV-B).
//!
//! [`SyntheticTrace`] reproduces that pipeline: flows appear with
//! incrementally numbered endpoints, and profiles that model the NLANR
//! traces scramble the addresses with a bijective mixer exactly like the
//! paper's preprocessing step. The LAN profile keeps a small unscrambled
//! address pool, which is what gives the LAN column of the paper's tables
//! its distinct lookup behaviour.
//!
//! Everything is driven by a seeded PRNG: the same profile and seed always
//! generate byte-identical packets.

use nprng::rngs::StdRng;
use nprng::{Rng, SeedableRng};

use crate::ip::{proto, Ipv4Header, TcpHeader, UdpHeader};
use crate::packet::{LinkType, Packet, Timestamp};

/// Snap length of generated captures. Headers are always complete; payload
/// bytes beyond this are represented only in `orig_len`, like a snapped
/// libpcap capture. Header-processing applications never look past this.
pub const GEN_SNAP: usize = 192;

/// How destination addresses are drawn.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AddressSpace {
    /// NLANR-style: endpoints numbered incrementally per flow, then
    /// scrambled for uniform coverage of the routing table.
    ScrambledInternet,
    /// A small campus pool: a handful of local subnets plus a few external
    /// servers, unscrambled.
    Lan,
}

/// A packet-size point in a profile's mix: `(total IP length, weight)`.
pub type SizePoint = (u16, u32);

/// Parameters of the `zipf` flow-reuse profile: a fixed population of
/// flows whose packets repeat **byte-identically**, drawn with Zipfian
/// popularity (flow of rank *r* has weight `1/r^s`).
///
/// The paper's four traces never repeat a packet (each carries a fresh IP
/// `ident` and advancing TCP sequence numbers); this profile instead models
/// the flow concentration of production traffic, where a small hot flow set
/// dominates. It exists to exercise flow-level caching layers such as the
/// engine's memoization cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ZipfParams {
    /// Number of distinct flows (each flow is one frozen packet).
    pub flows: u32,
    /// Skew exponent in hundredths: `100` is the classic `s = 1.0`.
    pub skew_centi: u32,
}

/// The shape of one synthetic trace, modelled on a paper trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceProfile {
    /// Trace name as used in the paper's tables.
    pub name: &'static str,
    /// Link type (affects only framing).
    pub link: LinkType,
    /// The real trace's packet count (paper Table I), for reporting.
    pub nominal_packets: u64,
    /// Active-flow working set size.
    pub max_flows: usize,
    /// Probability a packet starts a new flow (while below `max_flows`).
    pub new_flow_prob: f64,
    /// Fraction of flows that are TCP.
    pub tcp_fraction: f64,
    /// Fraction of flows that are UDP (remainder is ICMP).
    pub udp_fraction: f64,
    /// Weighted packet-size mix.
    pub sizes: &'static [SizePoint],
    /// Where addresses come from.
    pub address_space: AddressSpace,
    /// Flow-reuse parameters; `Some` only for the synthetic `zipf` profile.
    /// The four paper profiles are reuse-free and carry `None`.
    pub zipf: Option<ZipfParams>,
}

impl TraceProfile {
    /// MRA: OC-12c PoS backbone trace (paper: 4,643,333 packets).
    pub fn mra() -> TraceProfile {
        TraceProfile {
            name: "MRA",
            link: LinkType::Raw,
            nominal_packets: 4_643_333,
            max_flows: 16_384,
            new_flow_prob: 0.08,
            tcp_fraction: 0.85,
            udp_fraction: 0.12,
            sizes: &[(40, 45), (52, 10), (576, 15), (1420, 10), (1500, 20)],
            address_space: AddressSpace::ScrambledInternet,
            zipf: None,
        }
    }

    /// COS: OC-3c ATM access trace (paper: 2,183,310 packets).
    pub fn cos() -> TraceProfile {
        TraceProfile {
            name: "COS",
            link: LinkType::Raw,
            nominal_packets: 2_183_310,
            max_flows: 8_192,
            new_flow_prob: 0.09,
            tcp_fraction: 0.80,
            udp_fraction: 0.17,
            sizes: &[(40, 40), (64, 12), (552, 18), (576, 12), (1500, 18)],
            address_space: AddressSpace::ScrambledInternet,
            zipf: None,
        }
    }

    /// ODU: OC-3c ATM access trace (paper: 784,278 packets).
    pub fn odu() -> TraceProfile {
        TraceProfile {
            name: "ODU",
            link: LinkType::Raw,
            nominal_packets: 784_278,
            max_flows: 4_096,
            new_flow_prob: 0.09,
            tcp_fraction: 0.75,
            udp_fraction: 0.22,
            sizes: &[(40, 42), (60, 13), (512, 15), (576, 12), (1500, 18)],
            address_space: AddressSpace::ScrambledInternet,
            zipf: None,
        }
    }

    /// LAN: local 100 Mb/s Ethernet trace (paper: 100,000 packets).
    pub fn lan() -> TraceProfile {
        TraceProfile {
            name: "LAN",
            link: LinkType::Ethernet,
            nominal_packets: 100_000,
            max_flows: 512,
            new_flow_prob: 0.03,
            tcp_fraction: 0.70,
            udp_fraction: 0.28,
            sizes: &[(64, 45), (128, 10), (256, 10), (1024, 12), (1500, 23)],
            address_space: AddressSpace::Lan,
            zipf: None,
        }
    }

    /// `zipf`: a flow-reuse trace with default parameters (1024 flows,
    /// skew `s = 1.0`). Not a paper trace — see [`ZipfParams`]. Use
    /// [`TraceProfile::with_zipf`] to vary the population or the skew.
    pub fn zipf() -> TraceProfile {
        TraceProfile {
            name: "zipf",
            link: LinkType::Raw,
            nominal_packets: 1_000_000,
            max_flows: 1024,
            new_flow_prob: 0.0,
            tcp_fraction: 0.85,
            udp_fraction: 0.12,
            sizes: &[(40, 45), (52, 10), (576, 15), (1420, 10), (1500, 20)],
            address_space: AddressSpace::ScrambledInternet,
            zipf: Some(ZipfParams {
                flows: 1024,
                skew_centi: 100,
            }),
        }
    }

    /// The `zipf` profile with an explicit flow count and skew
    /// (in hundredths, so `skew_centi = 120` means `s = 1.2`).
    /// The flow count is clamped to at least 1.
    pub fn with_zipf(flows: u32, skew_centi: u32) -> TraceProfile {
        let flows = flows.max(1);
        let mut p = TraceProfile::zipf();
        p.max_flows = flows as usize;
        p.zipf = Some(ZipfParams { flows, skew_centi });
        p
    }

    /// This profile with the Zipf flow population resized (clamped to at
    /// least 1 flow). No-op on reuse-free profiles, which have no
    /// population to resize.
    #[must_use]
    pub fn set_zipf_flows(mut self, flows: u32) -> TraceProfile {
        if let Some(params) = &mut self.zipf {
            params.flows = flows.max(1);
            self.max_flows = params.flows as usize;
        }
        self
    }

    /// This profile with the Zipf skew replaced (in hundredths, so `120`
    /// means `s = 1.2`). No-op on reuse-free profiles.
    #[must_use]
    pub fn set_zipf_skew(mut self, skew_centi: u32) -> TraceProfile {
        if let Some(params) = &mut self.zipf {
            params.skew_centi = skew_centi;
        }
        self
    }

    /// The four paper traces in Table I order. The synthetic `zipf`
    /// flow-reuse profile is deliberately **not** part of this set: the
    /// paper's characterization (and everything keyed off `all()`, such as
    /// conformance sweeps and report exhibits) assumes reuse-free traces.
    pub fn all() -> [TraceProfile; 4] {
        [
            TraceProfile::mra(),
            TraceProfile::cos(),
            TraceProfile::odu(),
            TraceProfile::lan(),
        ]
    }

    /// Looks a profile up by (case-insensitive) name, including `zipf`.
    pub fn by_name(name: &str) -> Option<TraceProfile> {
        TraceProfile::all()
            .into_iter()
            .chain(std::iter::once(TraceProfile::zipf()))
            .find(|p| p.name.eq_ignore_ascii_case(name))
    }

    /// Whether this profile never repeats a packet byte-identically (true
    /// for the four paper traces, false for `zipf`).
    pub fn is_reuse_free(&self) -> bool {
        self.zipf.is_none()
    }

    /// A human-readable link description, as in paper Table I.
    pub fn link_description(&self) -> &'static str {
        match (self.name, self.link) {
            ("MRA", _) => "OC-12c (PoS)",
            ("COS", _) | ("ODU", _) => "OC-3c (ATM)",
            (_, LinkType::Ethernet) => "100Mbps (Ethernet)",
            (_, LinkType::Raw) => "raw IP",
        }
    }
}

/// The paper's address scrambler: a bijective 32-bit mixer applied to the
/// incrementally numbered NLANR addresses to spread them uniformly over
/// the address space (§IV-B).
///
/// Bijectivity matters: distinct hosts stay distinct, so flow structure is
/// preserved while routing-table coverage becomes uniform.
pub fn scramble_addr(addr: u32) -> u32 {
    // The classic "lowbias32" mixer — every step is invertible.
    let mut x = addr;
    x ^= x >> 16;
    x = x.wrapping_mul(0x7feb_352d);
    x ^= x >> 15;
    x = x.wrapping_mul(0x846c_a68b);
    x ^= x >> 16;
    x
}

#[derive(Debug, Clone, Copy)]
struct FlowState {
    src: u32,
    dst: u32,
    src_port: u16,
    dst_port: u16,
    protocol: u8,
    ttl: u8,
    seq: u32,
}

/// An infinite, deterministic packet source following a [`TraceProfile`].
///
/// Also an [`Iterator`] over [`Packet`] (never exhausted — use
/// [`Iterator::take`]).
#[derive(Debug)]
pub struct SyntheticTrace {
    profile: TraceProfile,
    rng: StdRng,
    flows: Vec<FlowState>,
    next_host: u32,
    ident: u16,
    clock_sec: u32,
    clock_usec: u32,
    size_weight_total: u32,
    /// Frozen per-flow packets for the `zipf` profile (empty otherwise).
    /// Each flow's bytes are built once at construction, so repeats are
    /// byte-identical — the defining property of the reuse profile.
    zipf_packets: Vec<Packet>,
    /// Normalized cumulative Zipf weights, parallel to `zipf_packets`.
    zipf_cdf: Vec<f64>,
}

impl SyntheticTrace {
    /// Creates a generator for `profile` from a seed. Equal seeds generate
    /// identical traces.
    pub fn new(profile: TraceProfile, seed: u64) -> SyntheticTrace {
        let mut trace = SyntheticTrace {
            profile,
            rng: StdRng::seed_from_u64(seed ^ 0x5049_4e47_u64),
            flows: Vec::with_capacity(profile.max_flows),
            next_host: 0,
            ident: 1,
            clock_sec: 1_100_000_000, // paper-era epoch
            clock_usec: 0,
            size_weight_total: profile.sizes.iter().map(|&(_, w)| w).sum(),
            zipf_packets: Vec::new(),
            zipf_cdf: Vec::new(),
        };
        if let Some(params) = profile.zipf {
            trace.build_zipf_population(params);
        }
        trace
    }

    fn build_zipf_population(&mut self, params: ZipfParams) {
        let s = f64::from(params.skew_centi) / 100.0;
        let flows = params.flows.max(1);
        let mut total = 0.0;
        for rank in 0..flows {
            let flow = self.new_flow();
            let total_len = self.pick_size().max(40);
            let ident = self.ident;
            self.ident = self.ident.wrapping_add(1);
            let mut packet = Packet::from_l3(Timestamp::new(0, 0), Vec::new());
            compose_into(&self.profile, flow, total_len, ident, &mut packet);
            self.zipf_packets.push(packet);
            total += f64::from(rank + 1).powf(-s);
            self.zipf_cdf.push(total);
        }
        for c in &mut self.zipf_cdf {
            *c /= total;
        }
    }

    /// The profile being generated.
    pub fn profile(&self) -> &TraceProfile {
        &self.profile
    }

    fn fresh_address(&mut self) -> u32 {
        match self.profile.address_space {
            AddressSpace::ScrambledInternet => {
                // NLANR numbering: 10.0.0.1, 10.0.0.2, ... then scrambled.
                // Re-scramble the rare outputs that land in space RFC 1812
                // routers must drop (0/8, 127/8, limited broadcast), so
                // the trace contains only forwardable packets like the
                // paper's preprocessed traces.
                self.next_host += 1;
                let mut addr = scramble_addr(0x0a00_0000 + self.next_host);
                while matches!(addr >> 24, 0 | 127) || addr == u32::MAX {
                    addr = scramble_addr(addr);
                }
                addr
            }
            AddressSpace::Lan => {
                // 48 local hosts on two subnets plus 16 external servers.
                self.next_host += 1;
                let n = self.next_host % 64;
                if n < 24 {
                    0xc0a8_0100 + n // 192.168.1.x
                } else if n < 48 {
                    0xc0a8_0200 + (n - 24) // 192.168.2.x
                } else {
                    0x0808_0800 + (n - 48) // a few external /24 hosts
                }
            }
        }
    }

    fn new_flow(&mut self) -> FlowState {
        let src = self.fresh_address();
        let dst = self.fresh_address();
        let r: f64 = self.rng.gen();
        let protocol = if r < self.profile.tcp_fraction {
            proto::TCP
        } else if r < self.profile.tcp_fraction + self.profile.udp_fraction {
            proto::UDP
        } else {
            proto::ICMP
        };
        let well_known: [u16; 8] = [80, 443, 53, 25, 110, 22, 8080, 123];
        FlowState {
            src,
            dst,
            src_port: self.rng.gen_range(1024..u16::MAX),
            dst_port: well_known[self.rng.gen_range(0..well_known.len())],
            protocol,
            ttl: self.rng.gen_range(16..128),
            seq: self.rng.gen(),
        }
    }

    fn pick_flow(&mut self) -> usize {
        // Square the uniform draw to bias toward long-lived early flows —
        // a cheap heavy-tail approximation.
        let u: f64 = self.rng.gen();
        let biased = u * u;
        ((biased * self.flows.len() as f64) as usize).min(self.flows.len() - 1)
    }

    fn pick_size(&mut self) -> u16 {
        let mut roll = self.rng.gen_range(0..self.size_weight_total);
        for &(size, weight) in self.profile.sizes {
            if roll < weight {
                return size;
            }
            roll -= weight;
        }
        self.profile.sizes[0].0
    }

    /// Generates the next packet.
    pub fn next_packet(&mut self) -> Packet {
        let mut packet = Packet::from_l3(Timestamp::default(), Vec::new());
        self.generate_into(&mut packet);
        packet
    }

    /// Generates the next packet into `packet`, reusing its `data`
    /// buffer. The one generator behind [`SyntheticTrace::next_packet`]
    /// and `PacketSource::next_into`.
    pub(crate) fn generate_into(&mut self, packet: &mut Packet) {
        // Advance the capture clock.
        self.clock_usec += self.rng.gen_range(1..250);
        if self.clock_usec >= 1_000_000 {
            self.clock_usec -= 1_000_000;
            self.clock_sec += 1;
        }
        let ts = Timestamp::new(self.clock_sec, self.clock_usec);

        // Flow-reuse profile: draw a rank from the Zipf CDF and replay that
        // flow's frozen bytes; only the timestamp differs between repeats.
        if !self.zipf_packets.is_empty() {
            let u: f64 = self.rng.gen();
            let index = self
                .zipf_cdf
                .partition_point(|&c| c < u)
                .min(self.zipf_packets.len() - 1);
            packet.copy_from(&self.zipf_packets[index]);
            packet.ts = ts;
            return;
        }

        // Choose or create a flow.
        let flow_index = if self.flows.is_empty()
            || (self.flows.len() < self.profile.max_flows
                && self.rng.gen::<f64>() < self.profile.new_flow_prob)
        {
            let f = self.new_flow();
            self.flows.push(f);
            self.flows.len() - 1
        } else {
            self.pick_flow()
        };

        let total_len = self.pick_size().max(40);
        let flow = &mut self.flows[flow_index];
        flow.seq = flow.seq.wrapping_add(u32::from(total_len) - 40);
        let flow = self.flows[flow_index];

        let ident = self.ident;
        self.ident = self.ident.wrapping_add(1);
        compose_into(&self.profile, flow, total_len, ident, packet);
        packet.ts = ts;
    }

    /// Generates `n` packets into a vector.
    pub fn take_packets(&mut self, n: usize) -> Vec<Packet> {
        (0..n).map(|_| self.next_packet()).collect()
    }
}

/// Writes the wire bytes of one packet from a flow's current state into
/// `packet`, reusing its `data` buffer. Every field but `ts` is set.
fn compose_into(
    profile: &TraceProfile,
    flow: FlowState,
    total_len: u16,
    ident: u16,
    packet: &mut Packet,
) {
    let mut header = Ipv4Header {
        version: 4,
        ihl: 5,
        tos: 0,
        total_len,
        ident,
        flags_frag: 0x4000, // DF
        ttl: flow.ttl,
        protocol: flow.protocol,
        header_checksum: 0,
        src: flow.src.into(),
        dst: flow.dst.into(),
    };
    header.finalize();

    let captured = (total_len as usize).min(GEN_SNAP);
    let link_overhead = profile.link.l3_offset();
    packet.data.clear();
    packet.data.resize(link_overhead + captured, 0);
    let (framing, l3) = packet.data.split_at_mut(link_overhead);
    if profile.link == LinkType::Ethernet {
        // Locally administered MACs derived from the addresses.
        framing[0..4].copy_from_slice(&flow.dst.to_be_bytes());
        framing[4] = 0x02;
        framing[6..10].copy_from_slice(&flow.src.to_be_bytes());
        framing[10] = 0x02;
        framing[12] = 0x08; // ethertype IPv4
        framing[13] = 0x00;
    }
    header.write(&mut l3[..20]);
    match flow.protocol {
        proto::TCP if captured >= 40 => {
            TcpHeader {
                src_port: flow.src_port,
                dst_port: flow.dst_port,
                seq: flow.seq,
                ack: flow.seq.rotate_left(7),
                offset_flags: 0x5010, // data offset 5, ACK
                window: 0xffff,
                checksum: 0,
                urgent: 0,
            }
            .write(&mut l3[20..40]);
        }
        proto::UDP if captured >= 28 => {
            UdpHeader {
                src_port: flow.src_port,
                dst_port: flow.dst_port,
                length: total_len - 20,
                checksum: 0,
            }
            .write(&mut l3[20..28]);
        }
        _ => {
            // ICMP echo request stub.
            if captured >= 24 {
                l3[20] = 8; // type
                l3[23] = 0;
            }
        }
    }
    // Deterministic payload fill.
    let payload_start = 20
        + usize::from(header.protocol == proto::TCP) * 20
        + usize::from(header.protocol == proto::UDP) * 8;
    for (i, byte) in l3.iter_mut().enumerate().skip(payload_start.min(captured)) {
        *byte = (i as u8) ^ (flow.seq as u8);
    }

    packet.orig_len = u32::from(total_len) + link_overhead as u32;
    packet.link = profile.link;
}

impl Iterator for SyntheticTrace {
    type Item = Packet;

    fn next(&mut self) -> Option<Packet> {
        Some(self.next_packet())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ip::TransportPorts;
    use std::collections::HashSet;

    #[test]
    fn deterministic_for_equal_seeds() {
        let a: Vec<Packet> = SyntheticTrace::new(TraceProfile::mra(), 7).take_packets(200);
        let b: Vec<Packet> = SyntheticTrace::new(TraceProfile::mra(), 7).take_packets(200);
        assert_eq!(a, b);
        let c: Vec<Packet> = SyntheticTrace::new(TraceProfile::mra(), 8).take_packets(200);
        assert_ne!(a, c);
    }

    #[test]
    fn every_packet_is_valid_ipv4() {
        for profile in TraceProfile::all() {
            let mut trace = SyntheticTrace::new(profile, 1);
            for _ in 0..500 {
                let p = trace.next_packet();
                let h = Ipv4Header::parse(p.l3()).expect("valid header");
                assert!(h.verify_checksum(), "{}: checksum", profile.name);
                assert!(h.ttl >= 2, "{}: ttl", profile.name);
                assert!(h.total_len >= 40);
                assert_eq!(h.flags_frag & 0x1fff, 0, "no fragments");
            }
        }
    }

    #[test]
    fn tcp_and_udp_carry_ports() {
        let mut trace = SyntheticTrace::new(TraceProfile::cos(), 3);
        let mut saw_tcp = false;
        let mut saw_udp = false;
        for _ in 0..300 {
            let p = trace.next_packet();
            let h = Ipv4Header::parse(p.l3()).unwrap();
            let ports = TransportPorts::parse(h.protocol, &p.l3()[20..]);
            match h.protocol {
                proto::TCP => {
                    saw_tcp = true;
                    assert!(ports.src_port >= 1024);
                }
                proto::UDP => {
                    saw_udp = true;
                    assert_ne!(ports.dst_port, 0);
                }
                _ => {}
            }
        }
        assert!(saw_tcp && saw_udp);
    }

    #[test]
    fn internet_profiles_cover_address_space() {
        let mut trace = SyntheticTrace::new(TraceProfile::mra(), 5);
        let mut top_octets = HashSet::new();
        for _ in 0..2000 {
            let p = trace.next_packet();
            let h = Ipv4Header::parse(p.l3()).unwrap();
            top_octets.insert(h.dst_u32() >> 24);
        }
        // Scrambling must spread destinations across many /8s. 2000 packets
        // of the MRA profile touch on the order of 100 distinct hosts.
        assert!(top_octets.len() > 50, "only {} /8s", top_octets.len());
    }

    #[test]
    fn lan_profile_stays_in_small_pool() {
        let mut trace = SyntheticTrace::new(TraceProfile::lan(), 5);
        let mut dsts = HashSet::new();
        for _ in 0..2000 {
            let p = trace.next_packet();
            let h = Ipv4Header::parse(p.l3()).unwrap();
            dsts.insert(h.dst_u32());
        }
        assert!(dsts.len() <= 64, "{} distinct LAN hosts", dsts.len());
    }

    #[test]
    fn lan_packets_are_ethernet_framed() {
        let mut trace = SyntheticTrace::new(TraceProfile::lan(), 1);
        let p = trace.next_packet();
        assert_eq!(p.link, LinkType::Ethernet);
        assert_eq!(p.data[12], 0x08);
        assert_eq!(p.l3()[0] >> 4, 4);
        assert_eq!(
            p.orig_len as usize,
            14 + usize::from(Ipv4Header::parse(p.l3()).unwrap().total_len)
        );
    }

    #[test]
    fn flows_repeat() {
        let mut trace = SyntheticTrace::new(TraceProfile::odu(), 11);
        let mut tuples = Vec::new();
        for _ in 0..1000 {
            let p = trace.next_packet();
            let h = Ipv4Header::parse(p.l3()).unwrap();
            tuples.push((h.src_u32(), h.dst_u32(), h.protocol));
        }
        let distinct: HashSet<_> = tuples.iter().collect();
        assert!(
            distinct.len() < tuples.len() / 2,
            "flows should repeat: {} distinct of {}",
            distinct.len(),
            tuples.len()
        );
    }

    #[test]
    fn scramble_is_bijective_on_a_sample() {
        let mut seen = HashSet::new();
        for i in 0..100_000u32 {
            assert!(seen.insert(scramble_addr(i)), "collision at {i}");
        }
    }

    #[test]
    fn timestamps_are_monotonic() {
        let mut trace = SyntheticTrace::new(TraceProfile::mra(), 2);
        let mut last = Timestamp::new(0, 0);
        for _ in 0..1000 {
            let ts = trace.next_packet().ts;
            assert!(ts > last);
            last = ts;
        }
    }

    #[test]
    fn profiles_lookup_by_name() {
        assert_eq!(TraceProfile::by_name("mra").unwrap().name, "MRA");
        assert_eq!(TraceProfile::by_name("LAN").unwrap().name, "LAN");
        assert!(TraceProfile::by_name("nope").is_none());
        assert_eq!(TraceProfile::by_name("zipf").unwrap().name, "zipf");
    }

    #[test]
    fn zipf_is_deterministic_and_repeats_bytes() {
        let a: Vec<Packet> = SyntheticTrace::new(TraceProfile::zipf(), 9).take_packets(500);
        let b: Vec<Packet> = SyntheticTrace::new(TraceProfile::zipf(), 9).take_packets(500);
        assert_eq!(a, b);
        // Packets from the same flow are byte-identical (only ts differs).
        let mut bodies = HashSet::new();
        for p in &a {
            bodies.insert(p.data.clone());
        }
        assert!(
            bodies.len() <= 1024,
            "at most one body per flow, got {}",
            bodies.len()
        );
        assert!(
            bodies.len() < a.len() / 2,
            "flow reuse must repeat bodies: {} distinct of {}",
            bodies.len(),
            a.len()
        );
    }

    #[test]
    fn zipf_skew_concentrates_on_hot_flows() {
        let mut trace = SyntheticTrace::new(TraceProfile::with_zipf(256, 120), 4);
        let mut counts = std::collections::HashMap::new();
        for _ in 0..4000 {
            let p = trace.next_packet();
            *counts.entry(p.data.clone()).or_insert(0u32) += 1;
        }
        let max = counts.values().copied().max().unwrap();
        // Uniform would give ~16 per flow; s = 1.2 concentrates hard.
        assert!(max > 200, "hottest flow only {max} of 4000");
        assert!(counts.len() <= 256);
    }

    #[test]
    fn zipf_packets_are_valid_ipv4() {
        let mut trace = SyntheticTrace::new(TraceProfile::with_zipf(64, 100), 1);
        for _ in 0..300 {
            let p = trace.next_packet();
            let h = Ipv4Header::parse(p.l3()).expect("valid header");
            assert!(h.verify_checksum());
            assert!(h.ttl >= 2);
            assert!(h.total_len >= 40);
        }
    }

    #[test]
    fn reuse_free_gate_rejects_zipf_only() {
        for p in TraceProfile::all() {
            assert!(p.is_reuse_free());
        }
        let z = TraceProfile::zipf();
        assert!(!z.is_reuse_free());
    }
}
