//! Parsing of packet-source specifications.
//!
//! The `pb stream` command addresses its input with a single string:
//!
//! ```text
//! capture.pcap                       a libpcap file
//! capture.tsh                        an NLANR TSH file
//! synth:mra                          infinite synthetic MRA trace
//! synth:mra:seed=42:packets=10000000 seeded, 10M packets
//! ```
//!
//! [`SourceSpec::parse`] classifies the string without touching the
//! filesystem; [`SourceSpec::open`] produces the boxed [`PacketSource`].
//! Parse failures are typed so the CLI can map them to usage errors
//! (exit code 2) rather than runtime failures.

use std::fmt;
use std::fs::File;
use std::io::BufReader;
use std::path::PathBuf;

use nettrace::pcap::PcapReader;
use nettrace::source::{Limited, PacketSource};
use nettrace::synth::{SyntheticTrace, TraceProfile};
use nettrace::tsh::TshReader;
use nettrace::TraceError;

/// Why a source specification string did not parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpecError {
    /// `synth:<profile>` named a profile that does not exist.
    UnknownProfile(String),
    /// A `synth:` option key is not one the spec grammar knows
    /// (`seed`, `packets`, and for the `zipf` profile `flows`/`skew`).
    UnknownOption {
        /// The option key — the text before `=`, verbatim.
        key: String,
        /// The option value — the text after `=`, empty when the option
        /// had no `=` at all.
        value: String,
    },
    /// A recognized option carried a value that did not parse or was out
    /// of range.
    BadOptionValue {
        /// The recognized option key.
        key: &'static str,
        /// The offending value, verbatim.
        value: String,
        /// What a valid value looks like.
        expected: &'static str,
    },
    /// A flow-population option (`flows=` / `skew=`) was given for a
    /// reuse-free paper profile; those options only exist on `zipf`.
    ReuseOption {
        /// The offending option, verbatim.
        option: String,
        /// The profile it was applied to.
        profile: &'static str,
    },
    /// The string is neither a `synth:` spec nor a recognized trace file
    /// extension (`.pcap`, `.tsh`).
    UnknownFormat(String),
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::UnknownProfile(name) => {
                write!(f, "unknown synth profile `{name}` (see `pb traces`)")
            }
            SpecError::UnknownOption { key, value } => {
                write!(f, "unknown synth option `{key}`")?;
                if !value.is_empty() {
                    write!(f, " (value `{value}`)")?;
                }
                write!(
                    f,
                    "; expected seed=<n> or packets=<n>; \
                     zipf also takes flows=<n> and skew=<s>"
                )
            }
            SpecError::BadOptionValue {
                key,
                value,
                expected,
            } => {
                write!(
                    f,
                    "bad value `{value}` for synth option `{key}` (expected {expected})"
                )
            }
            SpecError::ReuseOption { option, profile } => {
                write!(
                    f,
                    "option `{option}` is only valid for the `zipf` profile; \
                     `{profile}` is a reuse-free paper trace"
                )
            }
            SpecError::UnknownFormat(spec) => {
                write!(
                    f,
                    "unrecognized source `{spec}` (expected .pcap, .tsh, or synth:<profile>)"
                )
            }
        }
    }
}

impl std::error::Error for SpecError {}

/// A parsed packet-source specification.
#[derive(Debug, Clone, PartialEq)]
pub enum SourceSpec {
    /// A libpcap capture file.
    Pcap(PathBuf),
    /// An NLANR TSH trace file.
    Tsh(PathBuf),
    /// A seeded synthetic generator, optionally capped at a packet count
    /// (uncapped means infinite — the consumer must impose its own limit).
    Synth {
        /// The trace profile to generate.
        profile: TraceProfile,
        /// Generator seed (`seed=<n>`, default 42).
        seed: u64,
        /// Packet cap (`packets=<n>`), `None` for an unbounded stream.
        packets: Option<u64>,
    },
}

impl SourceSpec {
    /// Parses a specification string.
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] describing why the string is not a valid
    /// source; the filesystem is not consulted.
    pub fn parse(spec: &str) -> Result<SourceSpec, SpecError> {
        if let Some(rest) = spec.strip_prefix("synth:") {
            let mut parts = rest.split(':');
            let name = parts.next().unwrap_or("");
            let profile = TraceProfile::by_name(name)
                .ok_or_else(|| SpecError::UnknownProfile(name.to_string()))?;
            let mut seed = 42u64;
            let mut packets = None;
            let mut profile = profile;
            // Whether flows=/skew= apply never changes: the setters are
            // no-ops on reuse-free profiles.
            let reuse_free = profile.is_reuse_free();
            let profile_name = profile.name;
            let reuse_only = move |part: &str| -> Result<(), SpecError> {
                if reuse_free {
                    Err(SpecError::ReuseOption {
                        option: part.to_string(),
                        profile: profile_name,
                    })
                } else {
                    Ok(())
                }
            };
            for part in parts {
                let bad = |key: &'static str, value: &str, expected: &'static str| {
                    SpecError::BadOptionValue {
                        key,
                        value: value.to_string(),
                        expected,
                    }
                };
                if let Some(value) = part.strip_prefix("seed=") {
                    seed = value
                        .parse()
                        .map_err(|_| bad("seed", value, "a 64-bit unsigned integer"))?;
                } else if let Some(value) = part.strip_prefix("packets=") {
                    packets = Some(
                        value
                            .parse()
                            .map_err(|_| bad("packets", value, "a packet count"))?,
                    );
                } else if let Some(value) = part.strip_prefix("flows=") {
                    reuse_only(part)?;
                    let flows: u32 = value
                        .parse()
                        .ok()
                        .filter(|&n| n >= 1)
                        .ok_or_else(|| bad("flows", value, "a flow count of at least 1"))?;
                    profile = profile.set_zipf_flows(flows);
                } else if let Some(value) = part.strip_prefix("skew=") {
                    reuse_only(part)?;
                    let skew: f64 = value
                        .parse()
                        .ok()
                        .filter(|s: &f64| s.is_finite() && (0.0..=10.0).contains(s))
                        .ok_or_else(|| bad("skew", value, "a skew exponent in 0.0..=10.0"))?;
                    profile = profile.set_zipf_skew((skew * 100.0).round() as u32);
                } else {
                    let (key, value) = part.split_once('=').unwrap_or((part, ""));
                    return Err(SpecError::UnknownOption {
                        key: key.to_string(),
                        value: value.to_string(),
                    });
                }
            }
            return Ok(SourceSpec::Synth {
                profile,
                seed,
                packets,
            });
        }
        let lower = spec.to_ascii_lowercase();
        if lower.ends_with(".pcap") || lower.ends_with(".cap") {
            Ok(SourceSpec::Pcap(PathBuf::from(spec)))
        } else if lower.ends_with(".tsh") {
            Ok(SourceSpec::Tsh(PathBuf::from(spec)))
        } else {
            Err(SpecError::UnknownFormat(spec.to_string()))
        }
    }

    /// The packet count this source will produce, when known up front.
    pub fn packet_count(&self) -> Option<u64> {
        match self {
            SourceSpec::Synth { packets, .. } => *packets,
            _ => None,
        }
    }

    /// Whether the source generates forever: a `synth:` spec without a
    /// `packets=` cap. File sources are always bounded (by the file).
    pub fn is_unbounded(&self) -> bool {
        matches!(self, SourceSpec::Synth { packets: None, .. })
    }

    /// Opens the source for streaming. File-backed sources are buffered
    /// and read record by record: the source holds its read buffer, never
    /// the trace, and [`PacketSource::next_into`] reads into the caller's
    /// packet without allocating one.
    ///
    /// # Errors
    ///
    /// Fails if a file cannot be opened or its header is invalid.
    pub fn open(&self) -> Result<Box<dyn PacketSource + Send>, TraceError> {
        match self {
            SourceSpec::Pcap(path) => {
                let file = File::open(path)?;
                Ok(Box::new(PcapReader::new(BufReader::new(file))?))
            }
            SourceSpec::Tsh(path) => {
                let file = File::open(path)?;
                Ok(Box::new(TshReader::new(BufReader::new(file))))
            }
            SourceSpec::Synth {
                profile,
                seed,
                packets,
            } => {
                let trace = SyntheticTrace::new(*profile, *seed);
                Ok(match packets {
                    Some(n) => Box::new(Limited::new(trace, *n)),
                    None => Box::new(trace),
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synth_specs_parse_with_defaults_and_options() {
        let spec = SourceSpec::parse("synth:mra").unwrap();
        assert!(matches!(
            spec,
            SourceSpec::Synth {
                seed: 42,
                packets: None,
                ..
            }
        ));
        let spec = SourceSpec::parse("synth:LAN:seed=7:packets=1000").unwrap();
        match spec {
            SourceSpec::Synth {
                profile,
                seed,
                packets,
            } => {
                assert_eq!(profile.name, "LAN");
                assert_eq!(seed, 7);
                assert_eq!(packets, Some(1000));
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(spec_count("synth:cos:packets=5"), Some(5));
        assert_eq!(spec_count("synth:cos"), None);
    }

    fn spec_count(s: &str) -> Option<u64> {
        SourceSpec::parse(s).unwrap().packet_count()
    }

    #[test]
    fn unknown_profile_is_a_typed_error() {
        assert_eq!(
            SourceSpec::parse("synth:wan"),
            Err(SpecError::UnknownProfile("wan".to_string()))
        );
        assert_eq!(
            SourceSpec::parse("synth:"),
            Err(SpecError::UnknownProfile(String::new()))
        );
    }

    #[test]
    fn bad_synth_options_are_typed_errors() {
        // Unknown keys carry the key and value separately so the message
        // can name both.
        assert_eq!(
            SourceSpec::parse("synth:mra:sed=1"),
            Err(SpecError::UnknownOption {
                key: "sed".to_string(),
                value: "1".to_string(),
            })
        );
        assert_eq!(
            SourceSpec::parse("synth:mra:fast"),
            Err(SpecError::UnknownOption {
                key: "fast".to_string(),
                value: String::new(),
            })
        );
        // Known keys with unparseable values name the key and the value.
        assert_eq!(
            SourceSpec::parse("synth:mra:packets=lots"),
            Err(SpecError::BadOptionValue {
                key: "packets",
                value: "lots".to_string(),
                expected: "a packet count",
            })
        );
        assert!(matches!(
            SourceSpec::parse("synth:mra:seed=-3"),
            Err(SpecError::BadOptionValue { key: "seed", .. })
        ));
    }

    #[test]
    fn zipf_specs_take_flow_population_options() {
        let spec = SourceSpec::parse("synth:zipf:flows=64:skew=1.2:packets=100").unwrap();
        match spec {
            SourceSpec::Synth {
                profile, packets, ..
            } => {
                assert_eq!(profile.name, "zipf");
                assert_eq!(profile.max_flows, 64);
                let params = profile.zipf.unwrap();
                assert_eq!(params.flows, 64);
                assert_eq!(params.skew_centi, 120);
                assert_eq!(packets, Some(100));
            }
            other => panic!("{other:?}"),
        }
        // Values must be sane: zero flows, negative or absurd skew are
        // usage errors, not silent clamps.
        assert!(matches!(
            SourceSpec::parse("synth:zipf:flows=0"),
            Err(SpecError::BadOptionValue { key: "flows", .. })
        ));
        assert!(matches!(
            SourceSpec::parse("synth:zipf:skew=-1"),
            Err(SpecError::BadOptionValue { key: "skew", .. })
        ));
        assert!(matches!(
            SourceSpec::parse("synth:zipf:skew=steep"),
            Err(SpecError::BadOptionValue { key: "skew", .. })
        ));
    }

    #[test]
    fn flow_options_on_paper_traces_are_rejected() {
        let err = SourceSpec::parse("synth:mra:flows=64").unwrap_err();
        assert_eq!(
            err,
            SpecError::ReuseOption {
                option: "flows=64".to_string(),
                profile: "MRA",
            }
        );
        let message = SourceSpec::parse("synth:lan:skew=1.0")
            .unwrap_err()
            .to_string();
        assert!(message.contains("zipf") && message.contains("reuse-free"));
    }

    #[test]
    fn file_specs_classify_by_extension() {
        assert!(matches!(
            SourceSpec::parse("traces/day1.pcap"),
            Ok(SourceSpec::Pcap(_))
        ));
        assert!(matches!(
            SourceSpec::parse("MRA.TSH"),
            Ok(SourceSpec::Tsh(_))
        ));
        assert!(matches!(
            SourceSpec::parse("notes.txt"),
            Err(SpecError::UnknownFormat(_))
        ));
    }

    #[test]
    fn synth_source_opens_and_respects_cap() {
        let spec = SourceSpec::parse("synth:odu:seed=3:packets=4").unwrap();
        let mut source = spec.open().unwrap();
        let mut n = 0;
        while source.next_packet().unwrap().is_some() {
            n += 1;
        }
        assert_eq!(n, 4);
    }

    #[test]
    fn errors_render_helpfully() {
        let message = SpecError::UnknownProfile("wan".into()).to_string();
        assert!(message.contains("wan") && message.contains("pb traces"));
        let message = SpecError::UnknownFormat("x.bin".into()).to_string();
        assert!(message.contains("synth:<profile>"));
        // Option errors name the offending key and value.
        let message = SourceSpec::parse("synth:mra:sed=1")
            .unwrap_err()
            .to_string();
        assert!(
            message.contains("`sed`") && message.contains("`1`"),
            "{message}"
        );
        let message = SourceSpec::parse("synth:mra:packets=lots")
            .unwrap_err()
            .to_string();
        assert!(
            message.contains("`packets`") && message.contains("`lots`"),
            "{message}"
        );
        // A bare unknown word renders without a dangling empty value.
        let message = SourceSpec::parse("synth:mra:fast").unwrap_err().to_string();
        assert!(
            message.contains("`fast`") && !message.contains("``"),
            "{message}"
        );
    }
}
