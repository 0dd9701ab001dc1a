//! The paper's four header-processing applications, embedded as NP32
//! assembly and paired with their golden models.
//!
//! Each application is assembled at [`App::build`] time from its `.s`
//! source with the structure-layout `.equ` constants prepended (taken from
//! the owning substrate crate, so the assembly and the Rust serializers
//! share one source of truth). `init()` — building routing tables, flow
//! tables, or anonymization tables directly into simulated memory — runs
//! on the host and is therefore never counted, exactly like the paper's
//! uncounted `init()` API call.

use nettrace::ip::Ipv4Header;
use npasm::Image;
use nproute::lctrie::{LcTrie, LcTrieImage};
use nproute::radix::{RadixImage, RadixTree};
use nproute::{RouteTable, TableGenerator};
use npsim::{Memory, MemoryMap};

use crate::config::WorkloadConfig;
use crate::error::BenchError;
use crate::framework::{sys, MemoRefusal, PacketRecord, Verdict};

pub mod xtea;

const IPV4_RADIX_SRC: &str = include_str!("../../apps/ipv4_radix.s");
const IPV4_TRIE_SRC: &str = include_str!("../../apps/ipv4_trie.s");
const FLOW_CLASS_SRC: &str = include_str!("../../apps/flow_class.s");
const TSA_SRC: &str = include_str!("../../apps/tsa.s");
const IPSEC_SRC: &str = include_str!("../../apps/ipsec.s");

/// Offset of the `init()`-built structures above the assembly `.data`
/// section (which holds only `state_ptr` and small scratch buffers).
const STRUCT_OFFSET: u32 = 0x0002_0000;

/// The paper's four applications (§IV-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AppId {
    /// RFC1812 forwarding, BSD-style radix lookup (unoptimized).
    Ipv4Radix,
    /// RFC1812 forwarding, LC-trie lookup (optimized).
    Ipv4Trie,
    /// 5-tuple flow classification with a chained hash table.
    FlowClass,
    /// Top-hashed subtree-replicated address anonymization.
    Tsa,
    /// XTEA payload encryption — a *payload* processing application (PPA)
    /// beyond the paper's four header-processing workloads, demonstrating
    /// the paper's claim (§IV) that PacketBench handles both classes.
    IpsecEnc,
}

impl AppId {
    /// The paper's four applications, in its column order.
    pub const ALL: [AppId; 4] = [
        AppId::Ipv4Radix,
        AppId::Ipv4Trie,
        AppId::FlowClass,
        AppId::Tsa,
    ];

    /// The paper's applications plus this reproduction's extensions.
    pub const WITH_EXTENSIONS: [AppId; 5] = [
        AppId::Ipv4Radix,
        AppId::Ipv4Trie,
        AppId::FlowClass,
        AppId::Tsa,
        AppId::IpsecEnc,
    ];

    /// The name as used in the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            AppId::Ipv4Radix => "IPv4-radix",
            AppId::Ipv4Trie => "IPv4-trie",
            AppId::FlowClass => "Flow Classification",
            AppId::Tsa => "TSA",
            AppId::IpsecEnc => "IPsec-enc",
        }
    }

    /// A short identifier for CLI arguments and file names.
    pub fn slug(self) -> &'static str {
        match self {
            AppId::Ipv4Radix => "radix",
            AppId::Ipv4Trie => "trie",
            AppId::FlowClass => "flow",
            AppId::Tsa => "tsa",
            AppId::IpsecEnc => "ipsec",
        }
    }

    /// Looks an application up by [`AppId::slug`] or paper name.
    pub fn by_name(name: &str) -> Option<AppId> {
        AppId::WITH_EXTENSIONS
            .into_iter()
            .find(|a| a.slug().eq_ignore_ascii_case(name) || a.name().eq_ignore_ascii_case(name))
    }

    /// The memoization key declaration: how many leading layer-3 bytes the
    /// application's result can depend on, or `None` for applications that
    /// mutate state between packets and must bypass the memo cache.
    ///
    /// This is only a *declaration* — eligibility is still proven
    /// statically by `npsim::analyze_writes` over the assembled program
    /// (see [`App::memo_key_len`]), so a wrong `Some` here cannot make
    /// an unsafe application memoizable. TSA declares a key, for example,
    /// but is vetoed by the write analysis because it appends to its
    /// in-memory record table through a pointer loaded from memory.
    pub fn memo_key_len(self) -> Option<usize> {
        match self {
            // Forwarding reads the full IPv4 header (checksum loop covers
            // `ihl * 4` bytes, at most 60) and nothing past it.
            AppId::Ipv4Radix | AppId::Ipv4Trie => Some(60),
            // TSA collects at most 36 header bytes per record (TCP case).
            AppId::Tsa => Some(40),
            // Flow classification increments per-flow counters: the result
            // for a repeated packet differs from the first occurrence.
            AppId::FlowClass => None,
            // IPsec rewrites the whole payload in place; replaying a cached
            // verdict would skip the encryption side effect.
            AppId::IpsecEnc => None,
        }
    }
}

impl std::fmt::Display for AppId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[derive(Debug)]
enum Golden {
    Radix {
        table: RouteTable,
        tree: RadixTree,
        image: Option<RadixImage>,
    },
    Trie {
        table: RouteTable,
        trie: LcTrie,
        image: Option<LcTrieImage>,
    },
    Flow {
        golden: flowclass::FlowTable,
        image: Option<flowclass::layout::FlowImage>,
    },
    Tsa {
        tsa: ipanon::Tsa,
        image: Option<ipanon::TsaImage>,
    },
    Ipsec {
        key: [u32; 4],
    },
}

/// An assembled application plus its golden model and workload state.
#[derive(Debug)]
pub struct App {
    id: AppId,
    image: Image,
    map: MemoryMap,
    golden: Golden,
}

impl App {
    /// Assembles the application and builds (host-side) the state its
    /// `init()` will write into simulated memory.
    ///
    /// # Errors
    ///
    /// Fails if the embedded source does not assemble or lacks `main` —
    /// both indicate a bug in this crate, not user error.
    pub fn build(id: AppId, config: &WorkloadConfig) -> Result<App, BenchError> {
        let map = MemoryMap::default();
        let (equs, src) = match id {
            AppId::Ipv4Radix => (nproute::radix::LAYOUT_EQUS.to_string(), IPV4_RADIX_SRC),
            AppId::Ipv4Trie => (nproute::lctrie::LAYOUT_EQUS.to_string(), IPV4_TRIE_SRC),
            AppId::FlowClass => (
                format!(
                    "{}        .equ FC_BUCKET_MASK, {}\n",
                    flowclass::layout::LAYOUT_EQUS,
                    config.flow_buckets - 1
                ),
                FLOW_CLASS_SRC,
            ),
            AppId::Tsa => (ipanon::LAYOUT_EQUS.to_string(), TSA_SRC),
            AppId::IpsecEnc => (String::new(), IPSEC_SRC),
        };
        let source = format!("{equs}\n{src}");
        let image = npasm::assemble(&source, map)?;
        if image.symbol("main").is_none() {
            return Err(BenchError::NoEntryPoint { app: id.name() });
        }

        let golden = match id {
            AppId::Ipv4Radix => {
                let table = TableGenerator::new(config.table_seed, config.ports)
                    .generate(config.radix_routes);
                let tree = RadixTree::build(&table);
                Golden::Radix {
                    table,
                    tree,
                    image: None,
                }
            }
            AppId::Ipv4Trie => {
                let table = TableGenerator::new(config.table_seed ^ 1, config.ports)
                    .generate(config.trie_routes);
                let trie = LcTrie::build(&table);
                Golden::Trie {
                    table,
                    trie,
                    image: None,
                }
            }
            AppId::FlowClass => Golden::Flow {
                golden: flowclass::FlowTable::new(
                    config.flow_buckets,
                    config.flow_capacity as usize,
                ),
                image: None,
            },
            AppId::Tsa => Golden::Tsa {
                tsa: ipanon::Tsa::new(config.tsa_key),
                image: None,
            },
            AppId::IpsecEnc => Golden::Ipsec {
                key: config.xtea_key,
            },
        };
        Ok(App {
            id,
            image,
            map,
            golden,
        })
    }

    /// The application's identity.
    pub fn id(&self) -> AppId {
        self.id
    }

    /// The assembled image.
    pub fn image(&self) -> &Image {
        &self.image
    }

    /// The memory map the application was assembled for.
    pub fn map(&self) -> MemoryMap {
        self.map
    }

    /// The entry point.
    pub fn entry(&self) -> u32 {
        self.image.symbol("main").expect("checked in build")
    }

    /// Base address of the `init()`-built persistent structures. Assembly
    /// `.data` below this address is per-packet scratch (`state_ptr`, key
    /// buffers); everything at or above it is state that must survive
    /// between packets — the boundary the memoization write-guard enforces.
    pub fn struct_base(&self) -> u32 {
        self.image.data_base() + STRUCT_OFFSET
    }

    /// The memo key length if the application may be memoized, or why
    /// not. It must declare a key ([`AppId::memo_key_len`]) and pass the
    /// static write-region guard: `npsim::analyze_writes` must prove
    /// every store targets the packet buffer, the stack, or the `.data`
    /// scratch below [`App::struct_base`], and the program must not call
    /// the side-effectful `write_packet_to_file`. Annotations are never
    /// trusted over the analysis.
    ///
    /// # Errors
    ///
    /// The first test the application fails.
    pub fn memo_key_len(&self) -> Result<usize, MemoRefusal> {
        let key_len = self.id.memo_key_len().ok_or(MemoRefusal::NoKey)?;
        let analysis = npsim::analyze_writes(self.image.program(), &self.map, self.struct_base());
        if let Some(violation) = analysis.violations.into_iter().next() {
            return Err(MemoRefusal::UnsafeStore(violation));
        }
        if analysis.sys_codes.contains(&sys::WRITE) {
            return Err(MemoRefusal::WritesPackets);
        }
        Ok(key_len)
    }

    /// The paper's `init()`: loads the `.data` section, writes the
    /// application's tables into simulated memory (host-side — uncounted),
    /// and patches `state_ptr`.
    pub(crate) fn init(&mut self, mem: &mut Memory, config: &WorkloadConfig) {
        self.image.load_data(mem);
        let base = self.struct_base();
        let header = match &mut self.golden {
            Golden::Radix { tree, image, .. } => {
                let img = tree.write_into(mem, base);
                *image = Some(img);
                img.header
            }
            Golden::Trie { trie, image, .. } => {
                let img = trie.write_into(mem, base);
                *image = Some(img);
                img.header
            }
            Golden::Flow { image, .. } => {
                let img = flowclass::layout::FlowImage::init(
                    mem,
                    base,
                    config.flow_buckets,
                    config.flow_capacity,
                );
                *image = Some(img);
                img.header
            }
            Golden::Tsa { tsa, image } => {
                let img = tsa.write_into(mem, base);
                *image = Some(img);
                img.header
            }
            Golden::Ipsec { key } => {
                for (i, word) in key.iter().enumerate() {
                    mem.write_u32(base + 4 * i as u32, *word);
                }
                base
            }
        };
        let state_ptr = self
            .image
            .symbol("state_ptr")
            .expect("every app declares state_ptr");
        mem.write_u32(state_ptr, header);
    }

    /// Checks one processed packet against the golden model.
    ///
    /// # Errors
    ///
    /// Returns [`BenchError::Mismatch`] describing the first disagreement.
    pub fn verify(
        &mut self,
        l3: &[u8],
        record: &PacketRecord,
        mem: &Memory,
    ) -> Result<(), BenchError> {
        let header = Ipv4Header::parse(l3)?;
        match &mut self.golden {
            Golden::Radix { tree, .. } => {
                verify_forwarding(tree.lookup(header.dst_u32()), record, "radix")
            }
            Golden::Trie { trie, .. } => {
                verify_forwarding(trie.lookup(header.dst_u32()), record, "trie")
            }
            Golden::Flow { golden, image } => {
                let key = flowclass::FlowKey::from_l3(l3)?;
                let expected = golden.process(key, u32::from(header.total_len));
                let got = match record.verdict {
                    Verdict::Dropped => None,
                    _ => Some(record.return_value),
                };
                if expected != got {
                    return Err(BenchError::Mismatch {
                        what: format!("flow count: golden {expected:?}, app {got:?}"),
                    });
                }
                // Cross-check the in-memory node when the flow exists.
                if let (Some(image), Some(count)) = (image.as_ref(), expected) {
                    let in_mem = image.find_flow(mem, &key).map(|(p, _)| p);
                    if in_mem != Some(count) {
                        return Err(BenchError::Mismatch {
                            what: format!("flow node in memory: {in_mem:?} != {count}"),
                        });
                    }
                }
                Ok(())
            }
            Golden::Tsa { tsa, image } => {
                let image = image.as_ref().expect("init ran");
                let count = image.record_count(mem);
                if count == 0 {
                    return Err(BenchError::Mismatch {
                        what: "tsa collected no record".into(),
                    });
                }
                let rec = image.record(mem, count - 1);
                let src = u32::from_be_bytes([l3[12], l3[13], l3[14], l3[15]]);
                let dst = u32::from_be_bytes([l3[16], l3[17], l3[18], l3[19]]);
                let got_src = u32::from_be_bytes([rec[20], rec[21], rec[22], rec[23]]);
                let got_dst = u32::from_be_bytes([rec[24], rec[25], rec[26], rec[27]]);
                if got_src != tsa.anonymize(src) {
                    return Err(BenchError::Mismatch {
                        what: format!("tsa src: {:#010x} != {:#010x}", got_src, tsa.anonymize(src)),
                    });
                }
                if got_dst != tsa.anonymize(dst) {
                    return Err(BenchError::Mismatch {
                        what: format!("tsa dst: {:#010x} != {:#010x}", got_dst, tsa.anonymize(dst)),
                    });
                }
                // The non-address header bytes are collected verbatim; how
                // much layer 4 was collected depends on the protocol.
                let collected = match l3[9] {
                    6 => 36,
                    17 => 28,
                    _ => 24,
                };
                for i in 0..collected.min(l3.len()) {
                    if (12..20).contains(&i) {
                        continue;
                    }
                    if rec[8 + i] != l3[i] {
                        return Err(BenchError::Mismatch {
                            what: format!("tsa record byte {i}: {} != {}", rec[8 + i], l3[i]),
                        });
                    }
                }
                if record.return_value != tsa.anonymize(dst) {
                    return Err(BenchError::Mismatch {
                        what: "tsa return value is not the anonymized destination".into(),
                    });
                }
                Ok(())
            }
            Golden::Ipsec { key } => {
                let hdr_len = header.header_len().min(l3.len());
                let mut expected = l3.to_vec();
                let blocks = xtea::encrypt_payload(&mut expected[hdr_len..], key);
                let in_mem = mem.read_bytes(self.map.packet_base, l3.len());
                if in_mem != expected {
                    let at = in_mem
                        .iter()
                        .zip(&expected)
                        .position(|(a, b)| a != b)
                        .unwrap_or(0);
                    return Err(BenchError::Mismatch {
                        what: format!("ipsec payload differs first at byte {at}"),
                    });
                }
                if record.return_value != blocks {
                    return Err(BenchError::Mismatch {
                        what: format!(
                            "ipsec block count: app {}, golden {blocks}",
                            record.return_value
                        ),
                    });
                }
                Ok(())
            }
        }
    }

    /// The routing table, for forwarding applications.
    pub fn route_table(&self) -> Option<&RouteTable> {
        match &self.golden {
            Golden::Radix { table, .. } | Golden::Trie { table, .. } => Some(table),
            _ => None,
        }
    }
}

fn verify_forwarding(
    expected: Option<u32>,
    record: &PacketRecord,
    which: &str,
) -> Result<(), BenchError> {
    let got = match record.verdict {
        Verdict::Forwarded(nh) => Some(nh),
        _ => None,
    };
    if expected != got {
        return Err(BenchError::Mismatch {
            what: format!("{which} next hop: golden {expected:?}, app {got:?}"),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_apps_assemble() {
        let config = WorkloadConfig::small();
        for id in AppId::WITH_EXTENSIONS {
            let app = App::build(id, &config).expect("assembles");
            assert!(app.image().program().len() > 20, "{id} suspiciously small");
            assert_eq!(app.entry(), app.image().text_base(), "{id}: main first");
            assert!(app.image.symbol("state_ptr").is_some());
        }
    }

    #[test]
    fn names_round_trip() {
        for id in AppId::WITH_EXTENSIONS {
            assert_eq!(AppId::by_name(id.slug()), Some(id));
            assert_eq!(AppId::by_name(id.name()), Some(id));
        }
        assert_eq!(AppId::by_name("bogus"), None);
    }

    #[test]
    fn init_patches_state_ptr() {
        let config = WorkloadConfig::small();
        let mut app = App::build(AppId::Ipv4Trie, &config).unwrap();
        let mut mem = Memory::new();
        app.init(&mut mem, &config);
        let ptr = mem.read_u32(app.image.symbol("state_ptr").unwrap());
        assert_eq!(ptr, app.struct_base());
        // The header's first word points at the trie array, inside the image.
        assert!(mem.read_u32(ptr) > ptr);
    }
}
