//! The NLANR PMA "Time Sequenced Headers" (TSH) trace format
//! (paper §III-C) — the format of the MRA/COS/ODU traces.
//!
//! A TSH trace is a sequence of fixed 44-byte records:
//!
//! ```text
//! bytes  0..4   timestamp seconds (big-endian)
//! byte   4      interface number
//! bytes  5..8   timestamp microseconds (24 bits, big-endian)
//! bytes  8..28  IPv4 header (20 bytes, no options preserved)
//! bytes 28..44  first 16 bytes of the TCP header
//! ```
//!
//! Records carry no payload, so reading one yields a 36-byte layer-3
//! capture whose `orig_len` is taken from the IP `total_len` field.

use std::io::{Read, Write};

use crate::error::TraceError;
use crate::packet::{LinkType, Packet, Timestamp};

/// Size of one TSH record.
pub const RECORD_LEN: usize = 44;
/// Captured bytes per record (IP header + 16 bytes of TCP).
pub const SNAP_LEN: usize = 36;

/// Writes packets as TSH records.
#[derive(Debug)]
pub struct TshWriter<W: Write> {
    inner: W,
    interface: u8,
}

impl<W: Write> TshWriter<W> {
    /// Creates a writer that stamps `interface` into every record.
    pub fn new(inner: W, interface: u8) -> TshWriter<W> {
        TshWriter { inner, interface }
    }

    /// Appends one record. The packet's layer-3 bytes are used; anything
    /// beyond the 36-byte snap window is discarded, shorter packets are
    /// zero-padded (as NLANR's own tools do for non-TCP traffic).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn write_packet(&mut self, packet: &Packet) -> Result<(), TraceError> {
        let mut record = [0u8; RECORD_LEN];
        record[0..4].copy_from_slice(&packet.ts.sec.to_be_bytes());
        record[4] = self.interface;
        let usec = packet.ts.usec.min(999_999);
        record[5..8].copy_from_slice(&usec.to_be_bytes()[1..4]);
        let l3 = packet.l3();
        let n = l3.len().min(SNAP_LEN);
        record[8..8 + n].copy_from_slice(&l3[..n]);
        self.inner.write_all(&record)?;
        Ok(())
    }

    /// Flushes and returns the underlying writer.
    ///
    /// # Errors
    ///
    /// Propagates the flush failure.
    pub fn into_inner(mut self) -> Result<W, TraceError> {
        self.inner.flush()?;
        Ok(self.inner)
    }
}

/// Reads TSH records as packets. Also an [`Iterator`] over
/// `Result<Packet, TraceError>`.
#[derive(Debug)]
pub struct TshReader<R: Read> {
    inner: R,
}

impl<R: Read> TshReader<R> {
    /// Wraps a byte stream of TSH records.
    pub fn new(inner: R) -> TshReader<R> {
        TshReader { inner }
    }

    /// Reads the next record; `Ok(None)` at a clean end of file.
    ///
    /// The returned packet's `orig_len` is the IP header's `total_len`
    /// (the on-the-wire datagram size), while `data` holds the 36
    /// captured bytes.
    ///
    /// # Errors
    ///
    /// Fails on I/O errors or a trailing partial record.
    pub fn next_packet(&mut self) -> Result<Option<Packet>, TraceError> {
        let mut packet = Packet::from_l3(Timestamp::default(), Vec::new());
        Ok(self.read_into(&mut packet)?.then_some(packet))
    }

    /// Reads the next record into `packet`, reusing its `data` buffer;
    /// `Ok(false)` at a clean end of file. The one record parser behind
    /// [`TshReader::next_packet`] and `PacketSource::next_into`.
    pub(crate) fn read_into(&mut self, packet: &mut Packet) -> Result<bool, TraceError> {
        let mut record = [0u8; RECORD_LEN];
        if !crate::pcap::read_first_byte(&mut self.inner, &mut record)? {
            return Ok(false);
        }
        crate::pcap::read_exact(&mut self.inner, &mut record[1..], "TSH record")?;
        let sec = u32::from_be_bytes([record[0], record[1], record[2], record[3]]);
        let usec = u32::from_be_bytes([0, record[5], record[6], record[7]]);
        packet.ts = Timestamp::new(sec, usec);
        packet.orig_len = u32::from(u16::from_be_bytes([record[10], record[11]]));
        packet.link = LinkType::Raw;
        packet.data.clear();
        packet.data.extend_from_slice(&record[8..8 + SNAP_LEN]);
        Ok(true)
    }

    /// The interface byte of the *next* record is not exposed; TSH
    /// interface demultiplexing is out of scope for the workloads.
    pub fn into_inner(self) -> R {
        self.inner
    }
}

impl<R: Read> Iterator for TshReader<R> {
    type Item = Result<Packet, TraceError>;

    fn next(&mut self) -> Option<Self::Item> {
        self.next_packet().transpose()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ip::{proto, Ipv4Header};
    use std::net::Ipv4Addr;

    fn ip_packet(len: u16) -> Packet {
        let mut h = Ipv4Header {
            version: 4,
            ihl: 5,
            tos: 0,
            total_len: len,
            ident: 77,
            flags_frag: 0,
            ttl: 60,
            protocol: proto::TCP,
            header_checksum: 0,
            src: Ipv4Addr::new(1, 2, 3, 4),
            dst: Ipv4Addr::new(5, 6, 7, 8),
        };
        h.finalize();
        let mut data = vec![0u8; len as usize];
        h.write(&mut data);
        if data.len() >= 22 {
            data[20] = 0x01; // fake TCP bytes
            data[21] = 0xbb;
        }
        Packet::from_l3(Timestamp::new(1000, 123_456), data)
    }

    #[test]
    fn round_trip_preserves_headers() {
        let packet = ip_packet(120);
        let mut file = Vec::new();
        let mut writer = TshWriter::new(&mut file, 3);
        writer.write_packet(&packet).unwrap();
        writer.into_inner().unwrap();
        assert_eq!(file.len(), RECORD_LEN);
        assert_eq!(file[4], 3); // interface byte

        let mut reader = TshReader::new(&file[..]);
        let read = reader.next_packet().unwrap().unwrap();
        assert_eq!(read.ts, packet.ts);
        assert_eq!(read.orig_len, 120);
        assert_eq!(read.data.len(), SNAP_LEN);
        assert_eq!(&read.data[..20], &packet.data[..20]);
        assert_eq!(read.data[20], 0x01);
        let header = Ipv4Header::parse(read.l3()).unwrap();
        assert!(header.verify_checksum());
        assert!(reader.next_packet().unwrap().is_none());
    }

    #[test]
    fn short_packet_zero_padded() {
        let packet = ip_packet(20); // header only
        let mut file = Vec::new();
        TshWriter::new(&mut file, 0).write_packet(&packet).unwrap();
        let read = TshReader::new(&file[..]).next_packet().unwrap().unwrap();
        assert!(read.data[20..].iter().all(|&b| b == 0));
    }

    #[test]
    fn partial_record_is_truncation_error() {
        let packet = ip_packet(40);
        let mut file = Vec::new();
        TshWriter::new(&mut file, 0).write_packet(&packet).unwrap();
        let cut = &file[..RECORD_LEN - 1];
        let mut reader = TshReader::new(cut);
        assert!(matches!(
            reader.next_packet(),
            Err(TraceError::Truncated { .. })
        ));
    }

    #[test]
    fn many_records_stream() {
        let mut file = Vec::new();
        let mut writer = TshWriter::new(&mut file, 1);
        for i in 0..10 {
            let mut p = ip_packet(60);
            p.ts = Timestamp::new(i, i * 10);
            writer.write_packet(&p).unwrap();
        }
        writer.into_inner().unwrap();
        let packets: Vec<_> = TshReader::new(&file[..]).map(|r| r.unwrap()).collect();
        assert_eq!(packets.len(), 10);
        assert_eq!(packets[9].ts, Timestamp::new(9, 90));
    }
}
