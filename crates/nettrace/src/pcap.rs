//! A from-scratch reader and writer for the classic libpcap capture format
//! (the `tcpdump` format of the paper, §III-C).
//!
//! Supports the microsecond-resolution magic (`0xa1b2c3d4`) in both byte
//! orders on read; always writes native little-endian files.

use std::io::{Read, Write};

use crate::error::TraceError;
use crate::packet::{LinkType, Packet, Timestamp};

const MAGIC: u32 = 0xa1b2_c3d4;
const MAGIC_SWAPPED: u32 = 0xd4c3_b2a1;
const VERSION_MAJOR: u16 = 2;
const VERSION_MINOR: u16 = 4;
/// Upper bound we accept for a single record, matching common tooling.
const MAX_RECORD: u32 = 0x00ff_ffff;

/// Streaming pcap writer.
///
/// ```
/// use nettrace::pcap::{PcapReader, PcapWriter};
/// use nettrace::{LinkType, Packet, Timestamp};
///
/// let mut file = Vec::new();
/// let mut writer = PcapWriter::new(&mut file, LinkType::Raw, 65535)?;
/// writer.write_packet(&Packet::from_l3(Timestamp::new(1, 2), vec![0x45, 0, 0, 20]))?;
///
/// let mut reader = PcapReader::new(&file[..])?;
/// let packet = reader.next_packet()?.expect("one packet");
/// assert_eq!(packet.data, vec![0x45, 0, 0, 20]);
/// assert!(reader.next_packet()?.is_none());
/// # Ok::<(), nettrace::TraceError>(())
/// ```
#[derive(Debug)]
pub struct PcapWriter<W: Write> {
    inner: W,
    snaplen: u32,
}

impl<W: Write> PcapWriter<W> {
    /// Writes the global header and returns the writer.
    ///
    /// A mutable reference also works: `PcapWriter::new(&mut vec, ..)`.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn new(mut inner: W, link: LinkType, snaplen: u32) -> Result<PcapWriter<W>, TraceError> {
        inner.write_all(&MAGIC.to_le_bytes())?;
        inner.write_all(&VERSION_MAJOR.to_le_bytes())?;
        inner.write_all(&VERSION_MINOR.to_le_bytes())?;
        inner.write_all(&0i32.to_le_bytes())?; // thiszone
        inner.write_all(&0u32.to_le_bytes())?; // sigfigs
        inner.write_all(&snaplen.to_le_bytes())?;
        inner.write_all(&link.pcap_code().to_le_bytes())?;
        Ok(PcapWriter { inner, snaplen })
    }

    /// Appends one packet record, snapping it to the writer's `snaplen`.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn write_packet(&mut self, packet: &Packet) -> Result<(), TraceError> {
        let snapped = packet.data.len().min(self.snaplen as usize);
        self.inner.write_all(&packet.ts.sec.to_le_bytes())?;
        self.inner.write_all(&packet.ts.usec.to_le_bytes())?;
        self.inner.write_all(&(snapped as u32).to_le_bytes())?;
        self.inner.write_all(&packet.orig_len.to_le_bytes())?;
        self.inner.write_all(&packet.data[..snapped])?;
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

/// Streaming pcap reader. Also an [`Iterator`] over
/// `Result<Packet, TraceError>`.
#[derive(Debug)]
pub struct PcapReader<R: Read> {
    inner: R,
    swapped: bool,
    link: LinkType,
    snaplen: u32,
}

impl<R: Read> PcapReader<R> {
    /// Reads and validates the global header.
    ///
    /// A mutable reference also works: `PcapReader::new(&mut reader)`.
    ///
    /// # Errors
    ///
    /// Fails on I/O errors, an unknown magic, or an unknown link type.
    pub fn new(mut inner: R) -> Result<PcapReader<R>, TraceError> {
        let mut header = [0u8; 24];
        read_exact(&mut inner, &mut header, "pcap file header")?;
        let magic = u32::from_le_bytes([header[0], header[1], header[2], header[3]]);
        let swapped = match magic {
            MAGIC => false,
            MAGIC_SWAPPED => true,
            other => return Err(TraceError::BadMagic { magic: other }),
        };
        let u32_at = |bytes: &[u8], at: usize| -> u32 {
            let raw = [bytes[at], bytes[at + 1], bytes[at + 2], bytes[at + 3]];
            if swapped {
                u32::from_be_bytes(raw)
            } else {
                u32::from_le_bytes(raw)
            }
        };
        let snaplen = u32_at(&header, 16);
        let linktype = u32_at(&header, 20);
        let link = LinkType::from_pcap_code(linktype).ok_or(TraceError::MalformedPacket {
            reason: "unsupported pcap link type",
        })?;
        Ok(PcapReader {
            inner,
            swapped,
            link,
            snaplen,
        })
    }

    /// The file's link type.
    pub fn link(&self) -> LinkType {
        self.link
    }

    /// The file's snap length.
    pub fn snaplen(&self) -> u32 {
        self.snaplen
    }

    /// Reads the next record; `Ok(None)` at a clean end of file.
    ///
    /// # Errors
    ///
    /// Fails on I/O errors, truncated records, or insane record lengths.
    pub fn next_packet(&mut self) -> Result<Option<Packet>, TraceError> {
        let mut packet = Packet::from_l3(Timestamp::default(), Vec::new());
        Ok(self.read_into(&mut packet)?.then_some(packet))
    }

    /// Reads the next record into `packet`, reusing its `data` buffer;
    /// `Ok(false)` at a clean end of file. The one record parser behind
    /// [`PcapReader::next_packet`] and `PacketSource::next_into`.
    pub(crate) fn read_into(&mut self, packet: &mut Packet) -> Result<bool, TraceError> {
        let mut header = [0u8; 16];
        if !read_first_byte(&mut self.inner, &mut header)? {
            return Ok(false);
        }
        read_exact(&mut self.inner, &mut header[1..], "pcap record header")?;
        let u32_at = |bytes: &[u8; 16], at: usize| -> u32 {
            let raw = [bytes[at], bytes[at + 1], bytes[at + 2], bytes[at + 3]];
            if self.swapped {
                u32::from_be_bytes(raw)
            } else {
                u32::from_le_bytes(raw)
            }
        };
        let incl_len = u32_at(&header, 8);
        // Bounded before the buffer grows to the record's length.
        if incl_len > MAX_RECORD {
            return Err(TraceError::OversizedRecord { len: incl_len });
        }
        packet.data.clear();
        packet.data.resize(incl_len as usize, 0);
        read_exact(&mut self.inner, &mut packet.data, "pcap record body")?;
        packet.ts = Timestamp::new(u32_at(&header, 0), u32_at(&header, 4));
        packet.orig_len = u32_at(&header, 12);
        packet.link = self.link;
        Ok(true)
    }
}

impl<R: Read> Iterator for PcapReader<R> {
    type Item = Result<Packet, TraceError>;

    fn next(&mut self) -> Option<Self::Item> {
        self.next_packet().transpose()
    }
}

pub(crate) fn read_exact<R: Read>(
    r: &mut R,
    buf: &mut [u8],
    what: &'static str,
) -> Result<(), TraceError> {
    r.read_exact(buf).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            TraceError::Truncated { what }
        } else {
            TraceError::Io(e)
        }
    })
}

/// Reads one byte into `buf[0]` to distinguish a clean end of stream
/// (`Ok(false)`) from the start of another record (`Ok(true)`), retrying
/// transparently on `ErrorKind::Interrupted` so a signal landing between
/// records is not mistaken for an I/O failure.
pub(crate) fn read_first_byte<R: Read>(r: &mut R, buf: &mut [u8]) -> Result<bool, TraceError> {
    loop {
        match r.read(&mut buf[..1]) {
            Ok(0) => return Ok(false),
            Ok(_) => return Ok(true),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(TraceError::Io(e)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_packets() -> Vec<Packet> {
        (0..5)
            .map(|i| {
                Packet::from_l3(
                    Timestamp::new(100 + i, i * 1000),
                    vec![0x45u8; 20 + i as usize],
                )
            })
            .collect()
    }

    #[test]
    fn write_read_round_trip() {
        let packets = sample_packets();
        let mut file = Vec::new();
        let mut writer = PcapWriter::new(&mut file, LinkType::Raw, 65535).unwrap();
        for p in &packets {
            writer.write_packet(p).unwrap();
        }
        writer.into_inner().unwrap();

        let reader = PcapReader::new(&file[..]).unwrap();
        assert_eq!(reader.link(), LinkType::Raw);
        let read: Vec<Packet> = reader.map(|r| r.unwrap()).collect();
        assert_eq!(read, packets);
    }

    #[test]
    fn snaplen_truncates_but_keeps_orig_len() {
        let packet = Packet::from_l3(Timestamp::new(0, 0), vec![7u8; 100]);
        let mut file = Vec::new();
        let mut writer = PcapWriter::new(&mut file, LinkType::Raw, 32).unwrap();
        writer.write_packet(&packet).unwrap();
        let mut reader = PcapReader::new(&file[..]).unwrap();
        let read = reader.next_packet().unwrap().unwrap();
        assert_eq!(read.data.len(), 32);
        assert_eq!(read.orig_len, 100);
    }

    #[test]
    fn swapped_endianness_is_read() {
        // Hand-build a big-endian file with one empty record.
        let mut file = Vec::new();
        file.extend_from_slice(&MAGIC.to_be_bytes());
        file.extend_from_slice(&VERSION_MAJOR.to_be_bytes());
        file.extend_from_slice(&VERSION_MINOR.to_be_bytes());
        file.extend_from_slice(&0i32.to_be_bytes());
        file.extend_from_slice(&0u32.to_be_bytes());
        file.extend_from_slice(&65535u32.to_be_bytes());
        file.extend_from_slice(&101u32.to_be_bytes()); // raw IP
        file.extend_from_slice(&7u32.to_be_bytes()); // ts_sec
        file.extend_from_slice(&8u32.to_be_bytes()); // ts_usec
        file.extend_from_slice(&2u32.to_be_bytes()); // incl_len
        file.extend_from_slice(&2u32.to_be_bytes()); // orig_len
        file.extend_from_slice(&[0xab, 0xcd]);

        let mut reader = PcapReader::new(&file[..]).unwrap();
        assert_eq!(reader.snaplen(), 65535);
        let p = reader.next_packet().unwrap().unwrap();
        assert_eq!(p.ts, Timestamp::new(7, 8));
        assert_eq!(p.data, vec![0xab, 0xcd]);
    }

    #[test]
    fn bad_magic_rejected() {
        let file = [0u8; 24];
        assert!(matches!(
            PcapReader::new(&file[..]),
            Err(TraceError::BadMagic { .. })
        ));
    }

    #[test]
    fn truncated_file_reports_what() {
        let mut file = Vec::new();
        let mut writer = PcapWriter::new(&mut file, LinkType::Ethernet, 100).unwrap();
        writer
            .write_packet(&Packet {
                ts: Timestamp::default(),
                orig_len: 40,
                link: LinkType::Ethernet,
                data: vec![0u8; 40],
            })
            .unwrap();
        writer.into_inner().unwrap();
        // Cut the body short.
        let cut = &file[..file.len() - 5];
        let mut reader = PcapReader::new(cut).unwrap();
        assert!(matches!(
            reader.next_packet(),
            Err(TraceError::Truncated {
                what: "pcap record body"
            })
        ));
        // Cut mid record header.
        let cut = &file[..28];
        let mut reader = PcapReader::new(cut).unwrap();
        assert!(matches!(
            reader.next_packet(),
            Err(TraceError::Truncated { .. })
        ));
    }

    #[test]
    fn oversized_record_rejected() {
        let mut file = Vec::new();
        let writer = PcapWriter::new(&mut file, LinkType::Raw, 65535).unwrap();
        writer.into_inner().unwrap();
        file.extend_from_slice(&[0u8; 8]); // ts
        file.extend_from_slice(&0x7fff_ffffu32.to_le_bytes()); // incl_len
        file.extend_from_slice(&0u32.to_le_bytes());
        let mut reader = PcapReader::new(&file[..]).unwrap();
        assert!(matches!(
            reader.next_packet(),
            Err(TraceError::OversizedRecord { .. })
        ));
    }
}
