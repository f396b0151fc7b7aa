//! The workload specification language.
//!
//! The paper's throughput and latency claims are made under *traffic*, not
//! just an offered-load scalar, so workloads get the same first-class
//! treatment as networks: [`TrafficSpec`] is the parsed, validated form of a
//! short workload string, mirroring [`crate::NetworkSpec`]'s
//! `FromStr`/`Display` round-trip discipline:
//!
//! The *stationary* patterns, with loads as per-slot injection
//! probabilities in `[0, 1]`:
//!
//! * `"uniform(0.3)"` — uniform destinations at load 0.3;
//! * `"perm(0.5,7)"` — the static shift permutation `dst = src + 7 mod N`;
//! * `"hotspot(0.4,0,0.2)"` — uniform background with 20% of non-hot
//!   sources' messages aimed at processor 0;
//! * `"transpose(0.5)"` — matrix transpose on a square grid (`N = m²`);
//! * `"bitrev(0.5)"` — bit-reversal on a power-of-two network.
//!
//! The *demand processes* of [`otis_sim::demand`], with rates as expected
//! arrivals per processor per slot (finite, `>= 0`, may exceed 1 — the
//! per-slot injection probability is `1 − e^(−rate)`):
//!
//! * `"poisson(0.3)"` — Poisson arrivals, uniform destinations;
//! * `"poisson(0.3,5)"` — Poisson arrivals, every message aimed at
//!   processor 5 (which itself stays silent);
//! * `"onoff(0.8,5,15)"` — on/off bursts: Poisson arrivals at rate 0.8
//!   during 5-slot ON phases, silence during 15-slot OFF phases,
//!   per-processor phases drawn from the run RNG;
//! * `"mix(0.25,2.0,0.05)"` — elephants-and-mice: a quarter of the
//!   processors inject at rate 2.0, the rest at 0.05;
//! * `"trace(demand.trc)"` — lazy bounded-memory replay of a recorded
//!   `.trc` demand stream (the path is taken verbatim; it may not contain
//!   `,` or `)`).
//!
//! Parsing rejects malformed values with typed [`TrafficError`]s — `NaN` or
//! negative loads, loads above 1, out-of-range hotspot fractions, `NaN` or
//! negative rates, zero burst lengths — so a bad workload never reaches a
//! simulator.  Topology preconditions (transpose needs a square processor
//! count, bit-reversal a power of two, a hotspot or fixed Poisson
//! destination must exist, a trace's node ids must fit the network) are
//! checked at *bind* time by [`TrafficSpec::bind`], which turns the spec
//! into a runnable [`otis_sim::DemandSpec`] for one concrete network size —
//! refusing with a typed error instead of silently degrading.  Binding a
//! trace streams the whole file through [`otis_sim::validate_trace`] once,
//! in O(N) memory, so replay starts from a stream already known to be
//! well-formed.

use otis_sim::{validate_trace, DemandSpec, TraceError, TrafficPattern};
use std::fmt;
use std::str::FromStr;

/// A parsed, validated workload specification.
///
/// Construction through [`FromStr`] guarantees every load is finite and in
/// `[0, 1]` and every hotspot fraction is in `[0, 1]`; directly-constructed
/// values are re-checked by [`TrafficSpec::validate`] /
/// [`TrafficSpec::bind`] before they reach a simulator.
#[derive(Debug, Clone, PartialEq)]
pub enum TrafficSpec {
    /// `uniform(load)` — destinations uniform among the other processors.
    Uniform {
        /// Injection probability per processor per slot, in `[0, 1]`.
        load: f64,
    },
    /// `perm(load,offset)` — the static shift permutation
    /// `dst = (src + offset) mod N`.
    Permutation {
        /// Injection probability per processor per slot, in `[0, 1]`.
        load: f64,
        /// The shift of the permutation.
        offset: usize,
    },
    /// `hotspot(load,node,fraction)` — uniform background traffic with a
    /// fraction of every non-hot source's messages aimed at `hot_node` (see
    /// [`otis_sim::TrafficPattern::Hotspot`] for the exact semantics).
    Hotspot {
        /// Injection probability per processor per slot, in `[0, 1]`.
        load: f64,
        /// The hot destination; must exist in the bound network.
        hot_node: usize,
        /// Probability that a non-hot source's message targets `hot_node`,
        /// in `[0, 1]`.
        hot_fraction: f64,
    },
    /// `transpose(load)` — matrix transpose on a square processor grid;
    /// binding requires `N = m²`.
    Transpose {
        /// Injection probability per processor per slot, in `[0, 1]`.
        load: f64,
    },
    /// `bitrev(load)` — bit-reversal; binding requires `N = 2^b`.
    BitReversal {
        /// Injection probability per processor per slot, in `[0, 1]`.
        load: f64,
    },
    /// `poisson(rate)` / `poisson(rate,dst)` — Poisson arrivals at `rate`
    /// expected messages per processor per slot, destinations uniform or
    /// fixed to `dst`.
    Poisson {
        /// Expected arrivals per processor per slot (finite, `>= 0`, may
        /// exceed 1).
        rate: f64,
        /// `Some(d)`: every message targets processor `d`; must exist in
        /// the bound network.
        dst: Option<usize>,
    },
    /// `onoff(rate,burst,idle)` — Poisson arrivals at `rate` during
    /// `burst_len` ON slots, silence during `idle_len` OFF slots.
    OnOff {
        /// Expected arrivals per processor per slot while ON.
        rate: f64,
        /// ON-phase length in slots; must be `>= 1`.
        burst_len: u64,
        /// OFF-phase length in slots.
        idle_len: u64,
    },
    /// `mix(fraction,elephant_rate,mice_rate)` — elephants-and-mice:
    /// `round(fraction · N)` processors inject at `elephant_rate`, the rest
    /// at `mice_rate`.
    Mix {
        /// Fraction of processors that are elephants, in `[0, 1]`.
        fraction: f64,
        /// Expected arrivals per elephant processor per slot.
        elephant_rate: f64,
        /// Expected arrivals per mouse processor per slot.
        mice_rate: f64,
    },
    /// `trace(path)` — replay of a recorded `.trc` demand stream; binding
    /// validates the whole file against the network size.
    Trace {
        /// Path of the trace file, taken verbatim from the spec string.
        path: String,
    },
}

/// Why a workload string could not be parsed, or a parsed workload could not
/// be bound to a network.
#[derive(Debug, Clone, PartialEq)]
pub enum TrafficError {
    /// The input does not match `pattern(arg, ...)`.
    Syntax {
        /// The offending input.
        input: String,
        /// What was wrong with it.
        reason: &'static str,
    },
    /// The pattern mnemonic is not one of the supported ones.
    UnknownPattern {
        /// The offending input.
        input: String,
        /// The unrecognised mnemonic.
        pattern: String,
    },
    /// The pattern exists but was given the wrong number of arguments.
    Arity {
        /// The offending input.
        input: String,
        /// The pattern mnemonic.
        pattern: String,
        /// Human-readable expected signature.
        expected: &'static str,
        /// Number of arguments received.
        got: usize,
    },
    /// A load is `NaN`, infinite, negative or above 1 — it is an injection
    /// probability and must lie in `[0, 1]`.
    LoadOutOfRange {
        /// The rendered workload (or the raw input while parsing).
        spec: String,
        /// The offending value, rendered (so `NaN` survives the trip).
        value: String,
    },
    /// A hotspot fraction is `NaN`, infinite, negative or above 1.
    HotFractionOutOfRange {
        /// The rendered workload (or the raw input while parsing).
        spec: String,
        /// The offending value, rendered.
        value: String,
    },
    /// The hotspot's hot node does not exist in the bound network.
    HotNodeOutOfRange {
        /// The rendered workload.
        spec: String,
        /// The requested hot node.
        hot_node: usize,
        /// The bound network's processor count.
        nodes: usize,
    },
    /// Transpose traffic bound to a network whose processor count is not a
    /// perfect square.
    NotSquare {
        /// The rendered workload.
        spec: String,
        /// The bound network's processor count.
        nodes: usize,
    },
    /// Bit-reversal traffic bound to a network whose processor count is not
    /// a power of two.
    NotPowerOfTwo {
        /// The rendered workload.
        spec: String,
        /// The bound network's processor count.
        nodes: usize,
    },
    /// A rate is `NaN`, infinite or negative — rates are expected arrivals
    /// per slot and must be finite and `>= 0` (they *may* exceed 1).
    RateOutOfRange {
        /// The rendered workload (or the raw input while parsing).
        spec: String,
        /// The offending value, rendered (so `NaN` survives the trip).
        value: String,
    },
    /// An on/off burst length of 0 — the ON phase must last at least one
    /// slot.
    ZeroBurst {
        /// The rendered workload (or the raw input while parsing).
        spec: String,
    },
    /// A mix fraction is `NaN`, infinite, negative or above 1.
    MixFractionOutOfRange {
        /// The rendered workload (or the raw input while parsing).
        spec: String,
        /// The offending value, rendered.
        value: String,
    },
    /// A fixed Poisson destination does not exist in the bound network.
    DestinationOutOfRange {
        /// The rendered workload.
        spec: String,
        /// The requested destination.
        node: usize,
        /// The bound network's processor count.
        nodes: usize,
    },
    /// The trace file violates the `.trc` format or the bound network size
    /// — the wrapped [`TraceError`] carries the 1-based line number.
    Trace {
        /// The trace file's path.
        path: String,
        /// The first violation found.
        error: TraceError,
    },
    /// The trace file could not be opened or read at bind time.
    TraceIo {
        /// The trace file's path.
        path: String,
        /// The I/O error rendered as text.
        detail: String,
    },
}

impl fmt::Display for TrafficError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrafficError::Syntax { input, reason } => {
                write!(f, "cannot parse workload '{input}': {reason}")
            }
            TrafficError::UnknownPattern { input, pattern } => write!(
                f,
                "unknown traffic pattern '{pattern}' in '{input}' \
                 (supported: uniform, perm, hotspot, transpose, bitrev, \
                 poisson, onoff, mix, trace)"
            ),
            TrafficError::Arity {
                input,
                pattern,
                expected,
                got,
            } => write!(
                f,
                "wrong number of arguments for {pattern} in '{input}': \
                 expected {expected}, got {got}"
            ),
            TrafficError::LoadOutOfRange { spec, value } => write!(
                f,
                "load {value} in '{spec}' is out of range: loads are injection \
                 probabilities in [0, 1]"
            ),
            TrafficError::HotFractionOutOfRange { spec, value } => write!(
                f,
                "hotspot fraction {value} in '{spec}' is out of range: \
                 fractions lie in [0, 1]"
            ),
            TrafficError::HotNodeOutOfRange {
                spec,
                hot_node,
                nodes,
            } => write!(
                f,
                "hot node {hot_node} in '{spec}' does not exist: the network \
                 has {nodes} processors"
            ),
            TrafficError::NotSquare { spec, nodes } => write!(
                f,
                "'{spec}' needs a square processor count, but the network has \
                 {nodes} processors"
            ),
            TrafficError::NotPowerOfTwo { spec, nodes } => write!(
                f,
                "'{spec}' needs a power-of-two processor count, but the \
                 network has {nodes} processors"
            ),
            TrafficError::RateOutOfRange { spec, value } => write!(
                f,
                "rate {value} in '{spec}' is out of range: rates are expected \
                 arrivals per slot and must be finite and >= 0"
            ),
            TrafficError::ZeroBurst { spec } => write!(
                f,
                "burst length 0 in '{spec}': the ON phase must last at least \
                 one slot"
            ),
            TrafficError::MixFractionOutOfRange { spec, value } => write!(
                f,
                "mix fraction {value} in '{spec}' is out of range: fractions \
                 lie in [0, 1]"
            ),
            TrafficError::DestinationOutOfRange { spec, node, nodes } => write!(
                f,
                "destination {node} in '{spec}' does not exist: the network \
                 has {nodes} processors"
            ),
            TrafficError::Trace { path, error } => {
                write!(f, "trace file '{path}': {error}")
            }
            TrafficError::TraceIo { path, detail } => {
                write!(f, "trace file '{path}': {detail}")
            }
        }
    }
}

impl std::error::Error for TrafficError {}

impl TrafficSpec {
    /// The nominal offered load (messages per processor per slot): the load
    /// of a stationary pattern, the expected per-slot injection probability
    /// of a stochastic process, and `NaN` (undefined ahead of replay) for a
    /// trace — the sinks render the sentinel format-aware (`-` in the
    /// table, empty in CSV, `null` in JSONL).
    pub fn offered_load(&self) -> f64 {
        self.as_demand().offered_load()
    }

    /// The load that actually enters an `n`-processor network once pattern
    /// fixed points and silenced sources are accounted for; see
    /// [`otis_sim::DemandSpec::effective_load`].
    pub fn effective_load(&self, n: usize) -> f64 {
        self.as_demand().effective_load(n)
    }

    /// `true` for `trace(file)` workloads — replay consumes no RNG, so runs
    /// are seed-invariant (the scenario engine warns when a trace is
    /// crossed with several seeds).
    pub fn is_trace(&self) -> bool {
        matches!(self, TrafficSpec::Trace { .. })
    }

    /// Checks the value ranges that do not depend on a network: loads and
    /// hotspot/mix fractions must be finite and in `[0, 1]`, rates finite
    /// and `>= 0`, burst lengths at least 1.  Parsing performs these checks
    /// already; this re-validates directly-constructed values.
    pub fn validate(&self) -> Result<(), TrafficError> {
        let rate_check = |rate: f64| -> Result<(), TrafficError> {
            if rate.is_finite() && rate >= 0.0 {
                Ok(())
            } else {
                Err(TrafficError::RateOutOfRange {
                    spec: self.to_string(),
                    value: rate.to_string(),
                })
            }
        };
        match *self {
            TrafficSpec::Uniform { .. }
            | TrafficSpec::Permutation { .. }
            | TrafficSpec::Hotspot { .. }
            | TrafficSpec::Transpose { .. }
            | TrafficSpec::BitReversal { .. } => {
                let load = self.offered_load();
                if !(0.0..=1.0).contains(&load) {
                    return Err(TrafficError::LoadOutOfRange {
                        spec: self.to_string(),
                        value: load.to_string(),
                    });
                }
                if let TrafficSpec::Hotspot { hot_fraction, .. } = *self {
                    if !(0.0..=1.0).contains(&hot_fraction) {
                        return Err(TrafficError::HotFractionOutOfRange {
                            spec: self.to_string(),
                            value: hot_fraction.to_string(),
                        });
                    }
                }
                Ok(())
            }
            TrafficSpec::Poisson { rate, .. } => rate_check(rate),
            TrafficSpec::OnOff {
                rate, burst_len, ..
            } => {
                rate_check(rate)?;
                if burst_len == 0 {
                    return Err(TrafficError::ZeroBurst {
                        spec: self.to_string(),
                    });
                }
                Ok(())
            }
            TrafficSpec::Mix {
                fraction,
                elephant_rate,
                mice_rate,
            } => {
                if !(0.0..=1.0).contains(&fraction) {
                    return Err(TrafficError::MixFractionOutOfRange {
                        spec: self.to_string(),
                        value: fraction.to_string(),
                    });
                }
                rate_check(elephant_rate)?;
                rate_check(mice_rate)
            }
            TrafficSpec::Trace { .. } => Ok(()),
        }
    }

    /// Binds the workload to a concrete network of `n` processors, checking
    /// the topology preconditions it needs: transpose requires `n = m²`,
    /// bit-reversal requires `n = 2^b`, a hotspot's hot node and a fixed
    /// Poisson destination must exist, and a trace's whole file is streamed
    /// through [`otis_sim::validate_trace`] (syntax, node ranges, slot
    /// monotonicity — typed, line-numbered [`TraceError`]s).  Returns the
    /// runnable [`DemandSpec`] or a typed refusal — never a
    /// silently-degraded workload.
    pub fn bind(&self, n: usize) -> Result<DemandSpec, TrafficError> {
        self.validate()?;
        match *self {
            TrafficSpec::Hotspot { hot_node, .. } if hot_node >= n => {
                Err(TrafficError::HotNodeOutOfRange {
                    spec: self.to_string(),
                    hot_node,
                    nodes: n,
                })
            }
            TrafficSpec::Transpose { .. } if n.isqrt().pow(2) != n => {
                Err(TrafficError::NotSquare {
                    spec: self.to_string(),
                    nodes: n,
                })
            }
            TrafficSpec::BitReversal { .. } if !n.is_power_of_two() => {
                Err(TrafficError::NotPowerOfTwo {
                    spec: self.to_string(),
                    nodes: n,
                })
            }
            TrafficSpec::Poisson { dst: Some(d), .. } if d >= n => {
                Err(TrafficError::DestinationOutOfRange {
                    spec: self.to_string(),
                    node: d,
                    nodes: n,
                })
            }
            TrafficSpec::Trace { ref path } => {
                let file = std::fs::File::open(path).map_err(|e| TrafficError::TraceIo {
                    path: path.clone(),
                    detail: e.to_string(),
                })?;
                let stats = validate_trace(std::io::BufReader::new(file), n).map_err(|error| {
                    TrafficError::Trace {
                        path: path.clone(),
                        error,
                    }
                })?;
                // The same streaming pass measures the trace, so the bound
                // spec reports a real offered load instead of a NaN
                // sentinel (an empty trace is load 0, not undefined).
                Ok(DemandSpec::Trace {
                    path: path.clone(),
                    offered_load: Some(stats.offered_load(n)),
                })
            }
            _ => Ok(self.as_demand()),
        }
    }

    /// The unchecked [`TrafficPattern`] equivalent of a stationary
    /// workload, `None` for the demand processes (Poisson, on/off, mix,
    /// trace), which have no stationary-pattern form.  Prefer
    /// [`TrafficSpec::bind`], which validates against a network size; the
    /// raw pattern defends itself by injecting nothing where it is
    /// undefined.
    fn as_pattern(&self) -> Option<TrafficPattern> {
        match *self {
            TrafficSpec::Uniform { load } => Some(TrafficPattern::Uniform { load }),
            TrafficSpec::Permutation { load, offset } => {
                Some(TrafficPattern::Permutation { load, offset })
            }
            TrafficSpec::Hotspot {
                load,
                hot_node,
                hot_fraction,
            } => Some(TrafficPattern::Hotspot {
                load,
                hot_node,
                hot_fraction,
            }),
            TrafficSpec::Transpose { load } => Some(TrafficPattern::Transpose { load }),
            TrafficSpec::BitReversal { load } => Some(TrafficPattern::BitReversal { load }),
            TrafficSpec::Poisson { .. }
            | TrafficSpec::OnOff { .. }
            | TrafficSpec::Mix { .. }
            | TrafficSpec::Trace { .. } => None,
        }
    }

    /// The unchecked [`DemandSpec`] equivalent — stationary workloads wrap
    /// as [`DemandSpec::Pattern`], demand processes map variant for
    /// variant.  Prefer [`TrafficSpec::bind`], which validates first.
    fn as_demand(&self) -> DemandSpec {
        match self.as_pattern() {
            Some(pattern) => DemandSpec::Pattern(pattern),
            None => match *self {
                TrafficSpec::Poisson { rate, dst } => DemandSpec::Poisson { rate, dst },
                TrafficSpec::OnOff {
                    rate,
                    burst_len,
                    idle_len,
                } => DemandSpec::OnOff {
                    rate,
                    burst_len,
                    idle_len,
                },
                TrafficSpec::Mix {
                    fraction,
                    elephant_rate,
                    mice_rate,
                } => DemandSpec::Mix {
                    fraction,
                    elephant_rate,
                    mice_rate,
                },
                TrafficSpec::Trace { ref path } => DemandSpec::Trace {
                    path: path.clone(),
                    offered_load: None,
                },
                _ => unreachable!("every stationary workload has a pattern form"),
            },
        }
    }
}

impl fmt::Display for TrafficSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            TrafficSpec::Uniform { load } => write!(f, "uniform({load})"),
            TrafficSpec::Permutation { load, offset } => write!(f, "perm({load},{offset})"),
            TrafficSpec::Hotspot {
                load,
                hot_node,
                hot_fraction,
            } => write!(f, "hotspot({load},{hot_node},{hot_fraction})"),
            TrafficSpec::Transpose { load } => write!(f, "transpose({load})"),
            TrafficSpec::BitReversal { load } => write!(f, "bitrev({load})"),
            TrafficSpec::Poisson { rate, dst: None } => write!(f, "poisson({rate})"),
            TrafficSpec::Poisson { rate, dst: Some(d) } => write!(f, "poisson({rate},{d})"),
            TrafficSpec::OnOff {
                rate,
                burst_len,
                idle_len,
            } => write!(f, "onoff({rate},{burst_len},{idle_len})"),
            TrafficSpec::Mix {
                fraction,
                elephant_rate,
                mice_rate,
            } => write!(f, "mix({fraction},{elephant_rate},{mice_rate})"),
            TrafficSpec::Trace { ref path } => write!(f, "trace({path})"),
        }
    }
}

impl FromStr for TrafficSpec {
    type Err = TrafficError;

    fn from_str(input: &str) -> Result<Self, Self::Err> {
        let text = input.trim();
        let open = text.find('(').ok_or_else(|| TrafficError::Syntax {
            input: input.to_string(),
            reason: "expected pattern(arg, ...)",
        })?;
        if !text.ends_with(')') {
            return Err(TrafficError::Syntax {
                input: input.to_string(),
                reason: "missing closing parenthesis",
            });
        }
        let pattern = text[..open].trim().to_ascii_lowercase();
        let args: Vec<&str> = text[open + 1..text.len() - 1]
            .split(',')
            .map(str::trim)
            .collect();

        let load = |raw: &str| -> Result<f64, TrafficError> {
            let value = raw.parse::<f64>().map_err(|_| TrafficError::Syntax {
                input: input.to_string(),
                reason: "loads must be decimal numbers",
            })?;
            if (0.0..=1.0).contains(&value) {
                Ok(value)
            } else {
                Err(TrafficError::LoadOutOfRange {
                    spec: input.trim().to_string(),
                    value: raw.to_string(),
                })
            }
        };
        let index = |raw: &str| -> Result<usize, TrafficError> {
            raw.parse::<usize>().map_err(|_| TrafficError::Syntax {
                input: input.to_string(),
                reason: "offsets and node ids must be non-negative integers",
            })
        };
        let rate = |raw: &str| -> Result<f64, TrafficError> {
            let value = raw.parse::<f64>().map_err(|_| TrafficError::Syntax {
                input: input.to_string(),
                reason: "rates must be decimal numbers",
            })?;
            if value.is_finite() && value >= 0.0 {
                Ok(value)
            } else {
                Err(TrafficError::RateOutOfRange {
                    spec: input.trim().to_string(),
                    value: raw.to_string(),
                })
            }
        };
        let slots = |raw: &str| -> Result<u64, TrafficError> {
            raw.parse::<u64>().map_err(|_| TrafficError::Syntax {
                input: input.to_string(),
                reason: "burst and idle lengths must be non-negative integers",
            })
        };
        let arity_error = |expected: &'static str, got: usize| TrafficError::Arity {
            input: input.to_string(),
            pattern: pattern.clone(),
            expected,
            got,
        };

        match pattern.as_str() {
            "uniform" => match args[..] {
                [l] => Ok(TrafficSpec::Uniform { load: load(l)? }),
                _ => Err(arity_error("1 argument: uniform(load)", args.len())),
            },
            "perm" => match args[..] {
                [l, o] => Ok(TrafficSpec::Permutation {
                    load: load(l)?,
                    offset: index(o)?,
                }),
                _ => Err(arity_error("2 arguments: perm(load,offset)", args.len())),
            },
            "hotspot" => match args[..] {
                [l, node, frac] => {
                    let hot_fraction = frac.parse::<f64>().map_err(|_| TrafficError::Syntax {
                        input: input.to_string(),
                        reason: "hotspot fractions must be decimal numbers",
                    })?;
                    if !(0.0..=1.0).contains(&hot_fraction) {
                        return Err(TrafficError::HotFractionOutOfRange {
                            spec: input.trim().to_string(),
                            value: frac.to_string(),
                        });
                    }
                    Ok(TrafficSpec::Hotspot {
                        load: load(l)?,
                        hot_node: index(node)?,
                        hot_fraction,
                    })
                }
                _ => Err(arity_error(
                    "3 arguments: hotspot(load,node,fraction)",
                    args.len(),
                )),
            },
            "transpose" => match args[..] {
                [l] => Ok(TrafficSpec::Transpose { load: load(l)? }),
                _ => Err(arity_error("1 argument: transpose(load)", args.len())),
            },
            "bitrev" => match args[..] {
                [l] => Ok(TrafficSpec::BitReversal { load: load(l)? }),
                _ => Err(arity_error("1 argument: bitrev(load)", args.len())),
            },
            "poisson" => match args[..] {
                [r] => Ok(TrafficSpec::Poisson {
                    rate: rate(r)?,
                    dst: None,
                }),
                [r, d] => Ok(TrafficSpec::Poisson {
                    rate: rate(r)?,
                    dst: Some(index(d)?),
                }),
                _ => Err(arity_error(
                    "1 or 2 arguments: poisson(rate[,dst])",
                    args.len(),
                )),
            },
            "onoff" => match args[..] {
                [r, burst, idle] => {
                    let burst_len = slots(burst)?;
                    if burst_len == 0 {
                        return Err(TrafficError::ZeroBurst {
                            spec: input.trim().to_string(),
                        });
                    }
                    Ok(TrafficSpec::OnOff {
                        rate: rate(r)?,
                        burst_len,
                        idle_len: slots(idle)?,
                    })
                }
                _ => Err(arity_error(
                    "3 arguments: onoff(rate,burst_len,idle_len)",
                    args.len(),
                )),
            },
            "mix" => match args[..] {
                [frac, elephant, mice] => {
                    let fraction = frac.parse::<f64>().map_err(|_| TrafficError::Syntax {
                        input: input.to_string(),
                        reason: "mix fractions must be decimal numbers",
                    })?;
                    if !(0.0..=1.0).contains(&fraction) {
                        return Err(TrafficError::MixFractionOutOfRange {
                            spec: input.trim().to_string(),
                            value: frac.to_string(),
                        });
                    }
                    Ok(TrafficSpec::Mix {
                        fraction,
                        elephant_rate: rate(elephant)?,
                        mice_rate: rate(mice)?,
                    })
                }
                _ => Err(arity_error(
                    "3 arguments: mix(fraction,elephant_rate,mice_rate)",
                    args.len(),
                )),
            },
            "trace" => match args[..] {
                [path] if !path.is_empty() => Ok(TrafficSpec::Trace {
                    path: path.to_string(),
                }),
                [_] => Err(TrafficError::Syntax {
                    input: input.to_string(),
                    reason: "trace needs a non-empty file path",
                }),
                _ => Err(arity_error(
                    "1 argument: trace(path) — the path may not contain ','",
                    args.len(),
                )),
            },
            _ => Err(TrafficError::UnknownPattern {
                input: input.to_string(),
                pattern,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_pattern() {
        let cases = [
            ("uniform(0.3)", TrafficSpec::Uniform { load: 0.3 }),
            (
                "perm(0.5,7)",
                TrafficSpec::Permutation {
                    load: 0.5,
                    offset: 7,
                },
            ),
            (
                "hotspot(0.4,0,0.2)",
                TrafficSpec::Hotspot {
                    load: 0.4,
                    hot_node: 0,
                    hot_fraction: 0.2,
                },
            ),
            ("transpose(0.5)", TrafficSpec::Transpose { load: 0.5 }),
            ("bitrev(0.5)", TrafficSpec::BitReversal { load: 0.5 }),
        ];
        for (text, expected) in cases {
            assert_eq!(text.parse::<TrafficSpec>().unwrap(), expected, "{text}");
            assert_eq!(expected.to_string(), text);
            assert_eq!(
                expected.to_string().parse::<TrafficSpec>().unwrap(),
                expected
            );
        }
    }

    #[test]
    fn tolerant_syntax() {
        assert_eq!(
            "  HOTSPOT( 0.4 , 0 , 0.2 )  "
                .parse::<TrafficSpec>()
                .unwrap(),
            TrafficSpec::Hotspot {
                load: 0.4,
                hot_node: 0,
                hot_fraction: 0.2,
            }
        );
        assert_eq!(
            "Uniform(1)".parse::<TrafficSpec>().unwrap(),
            TrafficSpec::Uniform { load: 1.0 }
        );
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "uniform",
            "uniform(",
            "uniform 0.3",
            "uniform(0.3,1)",
            "perm(0.3)",
            "hotspot(0.3,0)",
            "gravity(0.3)",
            "perm(0.3,x)",
            "uniform(zero)",
        ] {
            assert!(
                bad.parse::<TrafficSpec>().is_err(),
                "{bad} should not parse"
            );
        }
    }

    #[test]
    fn rejects_out_of_range_values_with_typed_errors() {
        // NaN, negative and above-1 loads are refused at parse time — the
        // injection machinery never sees them.
        for bad in [
            "uniform(NaN)",
            "uniform(-0.1)",
            "uniform(1.5)",
            "perm(inf,2)",
        ] {
            let err = bad.parse::<TrafficSpec>().unwrap_err();
            assert!(
                matches!(err, TrafficError::LoadOutOfRange { .. }),
                "{bad}: {err}"
            );
        }
        let err = "hotspot(0.3,0,1.2)".parse::<TrafficSpec>().unwrap_err();
        assert!(matches!(err, TrafficError::HotFractionOutOfRange { .. }));
        let err = "hotspot(0.3,0,NaN)".parse::<TrafficSpec>().unwrap_err();
        assert!(matches!(err, TrafficError::HotFractionOutOfRange { .. }));
        // validate() re-checks directly-constructed values.
        assert!(TrafficSpec::Uniform { load: f64::NAN }.validate().is_err());
        assert!(TrafficSpec::Hotspot {
            load: 0.5,
            hot_node: 0,
            hot_fraction: -1.0
        }
        .validate()
        .is_err());
        assert!(TrafficSpec::Uniform { load: 0.5 }.validate().is_ok());
    }

    #[test]
    fn bind_checks_topology_preconditions() {
        // Transpose needs a square processor count.
        let transpose = TrafficSpec::Transpose { load: 0.5 };
        assert!(transpose.bind(16).is_ok());
        let err = transpose.bind(24).unwrap_err();
        assert!(
            matches!(err, TrafficError::NotSquare { nodes: 24, .. }),
            "{err}"
        );
        // Bit-reversal needs a power of two.
        let bitrev = TrafficSpec::BitReversal { load: 0.5 };
        assert!(bitrev.bind(32).is_ok());
        let err = bitrev.bind(24).unwrap_err();
        assert!(
            matches!(err, TrafficError::NotPowerOfTwo { nodes: 24, .. }),
            "{err}"
        );
        // The hot node must exist.
        let hotspot = TrafficSpec::Hotspot {
            load: 0.4,
            hot_node: 24,
            hot_fraction: 0.2,
        };
        let err = hotspot.bind(24).unwrap_err();
        assert!(
            matches!(
                err,
                TrafficError::HotNodeOutOfRange {
                    hot_node: 24,
                    nodes: 24,
                    ..
                }
            ),
            "{err}"
        );
        assert!(hotspot.bind(25).is_ok());
        // Unconstrained patterns bind anywhere.
        assert!(TrafficSpec::Uniform { load: 0.2 }.bind(7).is_ok());
        assert!(TrafficSpec::Permutation {
            load: 0.2,
            offset: 3
        }
        .bind(7)
        .is_ok());
    }

    #[test]
    fn bound_patterns_match_their_spec() {
        let spec: TrafficSpec = "perm(0.5,7)".parse().unwrap();
        assert_eq!(
            spec.bind(10).unwrap(),
            DemandSpec::Pattern(TrafficPattern::Permutation {
                load: 0.5,
                offset: 7
            })
        );
        assert_eq!(spec.offered_load(), 0.5);
        // effective_load delegates to the pattern's fixed-point accounting.
        let degenerate: TrafficSpec = "perm(0.5,10)".parse().unwrap();
        assert_eq!(degenerate.effective_load(10), 0.0);
    }

    #[test]
    fn parses_every_demand_process() {
        let cases = [
            (
                "poisson(0.3)",
                TrafficSpec::Poisson {
                    rate: 0.3,
                    dst: None,
                },
            ),
            (
                "poisson(1.5,5)",
                TrafficSpec::Poisson {
                    rate: 1.5,
                    dst: Some(5),
                },
            ),
            (
                "onoff(0.8,5,15)",
                TrafficSpec::OnOff {
                    rate: 0.8,
                    burst_len: 5,
                    idle_len: 15,
                },
            ),
            (
                "mix(0.25,2,0.05)",
                TrafficSpec::Mix {
                    fraction: 0.25,
                    elephant_rate: 2.0,
                    mice_rate: 0.05,
                },
            ),
            (
                "trace(examples/demand.trc)",
                TrafficSpec::Trace {
                    path: "examples/demand.trc".into(),
                },
            ),
        ];
        for (text, expected) in cases {
            assert_eq!(text.parse::<TrafficSpec>().unwrap(), expected, "{text}");
            assert_eq!(expected.to_string(), text);
            assert!(expected.validate().is_ok(), "{text}");
        }
    }

    #[test]
    fn rejects_bad_rates_and_bursts_with_typed_errors() {
        for bad in [
            "poisson(NaN)",
            "poisson(-0.3)",
            "onoff(inf,2,2)",
            "mix(0.2,0.5,-1)",
        ] {
            let err = bad.parse::<TrafficSpec>().unwrap_err();
            assert!(
                matches!(err, TrafficError::RateOutOfRange { .. }),
                "{bad}: {err}"
            );
        }
        // Rates above 1 are fine — they are arrival rates, not
        // probabilities.
        assert!("poisson(3.5)".parse::<TrafficSpec>().is_ok());
        let err = "onoff(0.5,0,10)".parse::<TrafficSpec>().unwrap_err();
        assert!(matches!(err, TrafficError::ZeroBurst { .. }), "{err}");
        let err = "mix(1.5,1,0.1)".parse::<TrafficSpec>().unwrap_err();
        assert!(
            matches!(err, TrafficError::MixFractionOutOfRange { .. }),
            "{err}"
        );
        for bad in ["trace()", "poisson(0.3,1,2)", "onoff(0.5,2)", "mix(0.2)"] {
            assert!(bad.parse::<TrafficSpec>().is_err(), "{bad}");
        }
        // validate() re-checks directly-constructed values.
        assert!(TrafficSpec::Poisson {
            rate: f64::NAN,
            dst: None
        }
        .validate()
        .is_err());
        assert!(TrafficSpec::OnOff {
            rate: 0.5,
            burst_len: 0,
            idle_len: 3
        }
        .validate()
        .is_err());
    }

    #[test]
    fn poisson_destination_is_checked_at_bind_time() {
        let spec: TrafficSpec = "poisson(0.3,8)".parse().unwrap();
        assert!(spec.bind(9).is_ok());
        let err = spec.bind(8).unwrap_err();
        assert!(
            matches!(
                err,
                TrafficError::DestinationOutOfRange {
                    node: 8,
                    nodes: 8,
                    ..
                }
            ),
            "{err}"
        );
    }

    #[test]
    fn trace_bind_validates_the_file() {
        let dir = std::env::temp_dir();
        let good = dir.join("otis_traffic_spec_good.trc");
        std::fs::write(&good, "0 0 1\n2 1 0\n").unwrap();
        let spec = TrafficSpec::Trace {
            path: good.to_str().unwrap().into(),
        };
        assert!(spec.is_trace());
        assert_eq!(
            spec.bind(4).unwrap(),
            DemandSpec::Trace {
                path: good.to_str().unwrap().into(),
                // 2 events over slots 0..=2 on 4 nodes.
                offered_load: Some(2.0 / 12.0),
            }
        );
        // Node ids are validated against the bound network size.
        let err = spec.bind(1).unwrap_err();
        assert!(
            matches!(
                err,
                TrafficError::Trace {
                    error: TraceError::NodeOutOfRange { line: 1, .. },
                    ..
                }
            ),
            "{err}"
        );
        // A missing file is a typed I/O refusal, not a panic.
        let missing: TrafficSpec = "trace(/nonexistent/demand.trc)".parse().unwrap();
        let err = missing.bind(4).unwrap_err();
        assert!(matches!(err, TrafficError::TraceIo { .. }), "{err}");
        std::fs::remove_file(&good).ok();
    }

    #[test]
    fn error_displays_are_informative() {
        let err = "gravity(0.3)".parse::<TrafficSpec>().unwrap_err();
        assert!(err.to_string().contains("gravity"));
        assert!(err.to_string().contains("supported"));
        let err = "uniform(2)".parse::<TrafficSpec>().unwrap_err();
        assert!(err.to_string().contains("[0, 1]"));
        let err = TrafficSpec::Transpose { load: 0.5 }.bind(24).unwrap_err();
        assert!(err.to_string().contains("square"));
        let err = TrafficSpec::BitReversal { load: 0.5 }.bind(24).unwrap_err();
        assert!(err.to_string().contains("power-of-two"));
    }
}
