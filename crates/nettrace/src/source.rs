//! Incremental packet sources for streaming consumers.
//!
//! [`PacketSource`] abstracts "the next packet, please" over every trace
//! kind this crate knows: pcap and TSH files read record by record, and
//! the seeded synthetic generators as infinite lazy sources. A consumer
//! that pulls from a `PacketSource` never forces the whole trace into
//! memory — the readers hold one record header at a time and the
//! generators hold only their flow state.
//!
//! [`PacketSource::next_into`] reads the next packet into a caller-owned
//! [`Packet`], reusing its `data` buffer: a consumer that keeps its
//! packet slots (the one-thread stream driver's chunk, the live
//! producer's scratch packet) stops allocating once every slot has grown
//! to the largest packet it carries. The readers' and the generator's
//! `next_packet` is their `next_into` on a fresh packet, so each format
//! is parsed in one place.
//!
//! [`Limited`] caps any source at a packet count, which is how an
//! infinite synthetic source becomes a finite trace
//! (`synth:mra:seed=42:packets=10000000` in the CLI).

use crate::error::TraceError;
use crate::packet::Packet;
use crate::pcap::PcapReader;
use crate::synth::SyntheticTrace;
use crate::tsh::TshReader;

/// A pull-based, possibly infinite stream of packets.
pub trait PacketSource {
    /// Produces the next packet; `Ok(None)` at a clean end of trace.
    /// Infinite sources never return `Ok(None)`.
    ///
    /// # Errors
    ///
    /// Fails on I/O errors or malformed trace records; a failed source
    /// should not be pulled again.
    fn next_packet(&mut self) -> Result<Option<Packet>, TraceError>;

    /// Reads the next packet into `packet`, reusing its `data` buffer;
    /// `Ok(false)` at a clean end of trace. Every field of `packet` is
    /// overwritten on `Ok(true)`; on `Ok(false)` or an error its contents
    /// are unspecified. The default moves `next_packet`'s result in, so it
    /// allocates as `next_packet` does; the readers and the generator
    /// override it.
    ///
    /// # Errors
    ///
    /// As [`PacketSource::next_packet`].
    fn next_into(&mut self, packet: &mut Packet) -> Result<bool, TraceError> {
        match self.next_packet()? {
            Some(next) => {
                *packet = next;
                Ok(true)
            }
            None => Ok(false),
        }
    }

    /// How many packets remain, when the source knows (finite generators);
    /// `None` for files and infinite sources.
    fn remaining_hint(&self) -> Option<u64> {
        None
    }
}

impl<R: std::io::Read> PacketSource for PcapReader<R> {
    fn next_packet(&mut self) -> Result<Option<Packet>, TraceError> {
        PcapReader::next_packet(self)
    }

    fn next_into(&mut self, packet: &mut Packet) -> Result<bool, TraceError> {
        self.read_into(packet)
    }
}

impl<R: std::io::Read> PacketSource for TshReader<R> {
    fn next_packet(&mut self) -> Result<Option<Packet>, TraceError> {
        TshReader::next_packet(self)
    }

    fn next_into(&mut self, packet: &mut Packet) -> Result<bool, TraceError> {
        self.read_into(packet)
    }
}

impl PacketSource for SyntheticTrace {
    fn next_packet(&mut self) -> Result<Option<Packet>, TraceError> {
        Ok(Some(SyntheticTrace::next_packet(self)))
    }

    fn next_into(&mut self, packet: &mut Packet) -> Result<bool, TraceError> {
        self.generate_into(packet);
        Ok(true)
    }
}

impl<S: PacketSource + ?Sized> PacketSource for Box<S> {
    fn next_packet(&mut self) -> Result<Option<Packet>, TraceError> {
        (**self).next_packet()
    }

    fn next_into(&mut self, packet: &mut Packet) -> Result<bool, TraceError> {
        (**self).next_into(packet)
    }

    fn remaining_hint(&self) -> Option<u64> {
        (**self).remaining_hint()
    }
}

impl<S: PacketSource + ?Sized> PacketSource for &mut S {
    fn next_packet(&mut self) -> Result<Option<Packet>, TraceError> {
        (**self).next_packet()
    }

    fn next_into(&mut self, packet: &mut Packet) -> Result<bool, TraceError> {
        (**self).next_into(packet)
    }

    fn remaining_hint(&self) -> Option<u64> {
        (**self).remaining_hint()
    }
}

/// A source truncated to at most `limit` packets.
#[derive(Debug)]
pub struct Limited<S> {
    inner: S,
    remaining: u64,
}

impl<S: PacketSource> Limited<S> {
    /// Caps `inner` at `limit` packets.
    pub fn new(inner: S, limit: u64) -> Limited<S> {
        Limited {
            inner,
            remaining: limit,
        }
    }

    /// Returns the wrapped source.
    pub fn into_inner(self) -> S {
        self.inner
    }
}

impl<S: PacketSource> PacketSource for Limited<S> {
    fn next_packet(&mut self) -> Result<Option<Packet>, TraceError> {
        if self.remaining == 0 {
            return Ok(None);
        }
        let packet = self.inner.next_packet()?;
        if packet.is_some() {
            self.remaining -= 1;
        }
        Ok(packet)
    }

    fn next_into(&mut self, packet: &mut Packet) -> Result<bool, TraceError> {
        // Checked first, so a capped source never reads past its cap.
        if self.remaining == 0 {
            return Ok(false);
        }
        let read = self.inner.next_into(packet)?;
        if read {
            self.remaining -= 1;
        }
        Ok(read)
    }

    fn remaining_hint(&self) -> Option<u64> {
        match self.inner.remaining_hint() {
            Some(inner) => Some(inner.min(self.remaining)),
            None => Some(self.remaining),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{LinkType, Timestamp};
    use crate::pcap::PcapWriter;
    use crate::synth::TraceProfile;
    use crate::tsh::TshWriter;

    fn drain(source: &mut impl PacketSource) -> Vec<Packet> {
        let mut out = Vec::new();
        while let Some(p) = source.next_packet().unwrap() {
            out.push(p);
        }
        out
    }

    #[test]
    fn pcap_reader_is_a_source() {
        let mut file = Vec::new();
        let mut writer = PcapWriter::new(&mut file, LinkType::Raw, 65535).unwrap();
        for i in 0..4u32 {
            writer
                .write_packet(&Packet::from_l3(
                    Timestamp::new(i, 0),
                    vec![0x45; 20 + i as usize],
                ))
                .unwrap();
        }
        writer.into_inner().unwrap();
        let mut reader = PcapReader::new(&file[..]).unwrap();
        assert_eq!(reader.remaining_hint(), None);
        assert_eq!(drain(&mut reader).len(), 4);
    }

    #[test]
    fn limited_synth_matches_take_packets() {
        let mut limited = Limited::new(SyntheticTrace::new(TraceProfile::mra(), 7), 25);
        assert_eq!(limited.remaining_hint(), Some(25));
        let streamed = drain(&mut limited);
        assert_eq!(limited.remaining_hint(), Some(0));
        let batch = SyntheticTrace::new(TraceProfile::mra(), 7).take_packets(25);
        assert_eq!(streamed, batch);
        // Exhausted stays exhausted.
        assert!(limited.next_packet().unwrap().is_none());
    }

    #[test]
    fn boxed_and_borrowed_sources_delegate() {
        let mut boxed: Box<dyn PacketSource + Send> =
            Box::new(Limited::new(SyntheticTrace::new(TraceProfile::lan(), 1), 3));
        assert_eq!(boxed.remaining_hint(), Some(3));
        let mut by_ref: &mut dyn PacketSource = &mut boxed;
        assert_eq!(drain(&mut by_ref).len(), 3);
    }

    /// A little-endian pcap of `packets` synthetic packets of `profile`.
    fn pcap_file(profile: TraceProfile, packets: usize) -> Vec<u8> {
        let mut file = Vec::new();
        let mut writer = PcapWriter::new(&mut file, profile.link, 65535).unwrap();
        for packet in SyntheticTrace::new(profile, 3).take_packets(packets) {
            writer.write_packet(&packet).unwrap();
        }
        writer.into_inner().unwrap();
        file
    }

    /// The same capture in big-endian byte order.
    fn big_endian(le: &[u8]) -> Vec<u8> {
        fn swap(out: &mut Vec<u8>, fields: &[u8], width: usize) {
            for field in fields.chunks(width) {
                out.extend(field.iter().rev());
            }
        }
        let mut be = Vec::with_capacity(le.len());
        // Global header: magic, two u16 versions, four u32 fields.
        swap(&mut be, &le[..4], 4);
        swap(&mut be, &le[4..8], 2);
        swap(&mut be, &le[8..24], 4);
        let mut at = 24;
        while at < le.len() {
            let incl_len = u32::from_le_bytes(le[at + 8..at + 12].try_into().unwrap()) as usize;
            swap(&mut be, &le[at..at + 16], 4);
            be.extend_from_slice(&le[at + 16..at + 16 + incl_len]);
            at += 16 + incl_len;
        }
        be
    }

    /// Reads `fresh` with `next_packet` and `reused` with `next_into` into
    /// one slot that starts with a longer stale buffer; they must agree
    /// packet for packet and end together. Returns the packet count.
    fn assert_reads_agree(
        mut fresh: impl PacketSource,
        mut reused: impl PacketSource,
        what: &str,
    ) -> usize {
        let mut slot = Packet {
            ts: Timestamp::new(9, 9),
            orig_len: 4000,
            link: LinkType::Ethernet,
            data: vec![0xee; 4000],
        };
        let mut n = 0;
        while let Some(want) = fresh.next_packet().unwrap() {
            assert!(reused.next_into(&mut slot).unwrap(), "{what}: ended at {n}");
            assert_eq!(slot, want, "{what}: packet {n}");
            n += 1;
        }
        assert!(
            !reused.next_into(&mut slot).unwrap(),
            "{what}: ran past {n}"
        );
        n
    }

    #[test]
    fn next_into_reads_what_next_packet_reads_without_stale_bytes() {
        for profile in [TraceProfile::mra(), TraceProfile::lan()] {
            let le = pcap_file(profile, 300);
            let be = big_endian(&le);
            assert_ne!(le, be);
            for (order, file) in [("le", &le), ("be", &be)] {
                let open = || PcapReader::new(&file[..]).unwrap();
                assert_eq!(open().link(), profile.link);
                let what = format!("pcap {} {order}", profile.name);
                assert_eq!(assert_reads_agree(open(), open(), &what), 300);
            }
        }

        let mut tsh = Vec::new();
        let mut writer = TshWriter::new(&mut tsh, 2);
        for packet in SyntheticTrace::new(TraceProfile::cos(), 5).take_packets(300) {
            writer.write_packet(&packet).unwrap();
        }
        writer.into_inner().unwrap();
        let open = || TshReader::new(&tsh[..]);
        assert_eq!(assert_reads_agree(open(), open(), "tsh"), 300);

        for profile in TraceProfile::all()
            .into_iter()
            .chain([TraceProfile::zipf()])
        {
            let open = || Limited::new(SyntheticTrace::new(profile, 11), 1000);
            assert_eq!(assert_reads_agree(open(), open(), profile.name), 1000);
        }
    }

    #[test]
    fn next_into_fails_as_next_packet_fails() {
        let file = pcap_file(TraceProfile::mra(), 2);
        let mut oversized = file[..24].to_vec();
        oversized.extend_from_slice(&[0u8; 8]); // ts
        oversized.extend_from_slice(&0x7fff_ffffu32.to_le_bytes()); // incl_len
        oversized.extend_from_slice(&0u32.to_le_bytes());
        let cases: [(&[u8], &str); 3] = [
            (&file[..file.len() - 5], "truncated pcap record body"),
            (&file[..30], "truncated pcap record header"),
            (&oversized, "record length"),
        ];
        for (bytes, want) in cases {
            let mut fresh = PcapReader::new(bytes).unwrap();
            let mut reused = PcapReader::new(bytes).unwrap();
            let mut slot = Packet::from_l3(Timestamp::default(), vec![0xee; 4000]);
            let (a, b) = loop {
                match (fresh.next_packet(), reused.next_into(&mut slot)) {
                    (Ok(Some(_)), Ok(true)) => continue,
                    (Err(a), Err(b)) => break (a.to_string(), b.to_string()),
                    (a, b) => panic!("{want}: {a:?} against {b:?}"),
                }
            };
            assert_eq!(a, b);
            assert!(a.contains(want), "{a}");
        }
        let mut tsh = Vec::new();
        let mut writer = TshWriter::new(&mut tsh, 0);
        writer
            .write_packet(&SyntheticTrace::new(TraceProfile::mra(), 1).next_packet())
            .unwrap();
        let cut = &tsh[..tsh.len() - 1];
        let mut slot = Packet::from_l3(Timestamp::default(), Vec::new());
        let a = TshReader::new(cut).next_packet().unwrap_err().to_string();
        let b = TshReader::new(cut).next_into(&mut slot).unwrap_err();
        assert_eq!(a, b.to_string());
        assert!(matches!(b, TraceError::Truncated { .. }), "{b:?}");
    }

    #[test]
    fn wrappers_forward_next_into() {
        // Reads only through `next_into`: a wrapper that fell back on the
        // default would call `next_packet` and allocate again.
        struct IntoOnly(u32);
        impl PacketSource for IntoOnly {
            fn next_packet(&mut self) -> Result<Option<Packet>, TraceError> {
                panic!("a wrapper called next_packet instead of forwarding next_into")
            }
            fn next_into(&mut self, packet: &mut Packet) -> Result<bool, TraceError> {
                self.0 += 1;
                packet.ts = Timestamp::new(self.0, 0);
                Ok(true)
            }
        }
        fn read(mut source: impl PacketSource, slot: &mut Packet) -> bool {
            source.next_into(slot).unwrap()
        }
        let mut slot = Packet::from_l3(Timestamp::default(), Vec::new());
        let mut limited = Limited::new(IntoOnly(0), 2);
        assert!(read(&mut limited, &mut slot));
        let mut boxed: Box<dyn PacketSource> = Box::new(limited);
        assert!(read(&mut boxed, &mut slot));
        assert_eq!(slot.ts, Timestamp::new(2, 0));
        // At the cap the inner source is not read again.
        assert!(!read(&mut boxed, &mut slot));
        assert_eq!(slot.ts, Timestamp::new(2, 0));
    }

    #[test]
    fn limited_does_not_overcount_short_sources() {
        let mut file = Vec::new();
        let mut writer = PcapWriter::new(&mut file, LinkType::Raw, 65535).unwrap();
        writer
            .write_packet(&Packet::from_l3(Timestamp::new(1, 1), vec![0x45; 20]))
            .unwrap();
        writer.into_inner().unwrap();
        let mut limited = Limited::new(PcapReader::new(&file[..]).unwrap(), 10);
        assert_eq!(drain(&mut limited).len(), 1);
        assert_eq!(limited.remaining_hint(), Some(9));
    }
}
