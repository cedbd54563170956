//! Replica-to-replica protocol messages (Paxos phases, catch-up,
//! failure-detector heartbeats).

use bytes::BytesMut;

use smr_types::{ReplicaId, Slot, View};

use crate::codec::{Codec, DecodeError, WireReader, WireWriter};
use crate::request::Batch;

/// One accepted-but-undecided log entry reported in a `Promise` (Phase 1b).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct AcceptedEntry {
    /// The slot of the entry.
    pub slot: Slot,
    /// The view in which the value was accepted.
    pub view: View,
    /// The accepted value.
    pub batch: Batch,
}

impl Codec for AcceptedEntry {
    fn encode(&self, buf: &mut BytesMut) {
        {
            let mut w = WireWriter::new(buf);
            w.u64(self.slot.0);
            w.u64(self.view.0);
        }
        self.batch.encode(buf);
    }

    fn decode_from(r: &mut WireReader<'_>) -> Result<Self, DecodeError> {
        let slot = Slot(r.u64()?);
        let view = View(r.u64()?);
        let batch = Batch::decode_from(r)?;
        Ok(AcceptedEntry { slot, view, batch })
    }

    fn encoded_len(&self) -> usize {
        8 + 8 + self.batch.encoded_len()
    }
}

/// Replica-to-replica messages of the replication protocol.
///
/// The naming follows the paper's description of Paxos (§III-A): a leader
/// executes *ballots* identified by a [`View`]; `Propose`/`Accept` are the
/// Phase 2a/2b messages whose round-trip dominates instance latency
/// (Fig. 10b).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum ProtocolMsg {
    /// Phase 1a: a replica claiming leadership of `view` asks peers for
    /// their accepted entries from `first_unstable` onward.
    Prepare {
        /// The view being prepared.
        view: View,
        /// First slot not known decided by the new leader.
        first_unstable: Slot,
    },
    /// Phase 1b: an acceptor promises not to accept in lower views and
    /// reports previously accepted entries.
    Promise {
        /// The view being promised.
        view: View,
        /// Highest slot this acceptor knows to be decided, plus one.
        decided_upto: Slot,
        /// Accepted-but-undecided entries at or above the leader's
        /// `first_unstable`.
        accepted: Vec<AcceptedEntry>,
    },
    /// Phase 2a: the leader of `view` proposes `batch` for `slot`.
    Propose {
        /// The proposing view.
        view: View,
        /// The consensus instance.
        slot: Slot,
        /// The proposed value.
        batch: Batch,
    },
    /// Phase 2b: an acceptor accepted the proposal of `view` for `slot`.
    /// Broadcast to all replicas so every replica learns decisions
    /// directly.
    Accept {
        /// The accepting view.
        view: View,
        /// The accepted instance.
        slot: Slot,
    },
    /// Catch-up request: ask a peer for the decided values of slots in
    /// `[from, to)` (§III, catch-up/state transfer task).
    CatchupQuery {
        /// First wanted slot.
        from: Slot,
        /// One past the last wanted slot.
        to: Slot,
    },
    /// Catch-up response carrying decided values.
    CatchupReply {
        /// Highest decided slot of the responder, plus one.
        decided_upto: Slot,
        /// Decided `(slot, value)` pairs.
        entries: Vec<(Slot, Batch)>,
    },
    /// Failure-detector heartbeat on an otherwise idle link: from the
    /// leader of `view` to a follower, or from a follower to its leader.
    Heartbeat {
        /// The sender's current view.
        view: View,
        /// Highest slot the sender knows decided, plus one (lets idle
        /// followers detect they are behind and trigger catch-up).
        decided_upto: Slot,
    },
    /// A replica announces it suspects the leader of `view` and asks the
    /// natural next leader to take over (vote for view advancement).
    Suspect {
        /// The suspected view.
        view: View,
        /// The replica raising the suspicion.
        from: ReplicaId,
    },
    /// Snapshot transfer: a peer that has compacted the slots a straggler
    /// asked for ships its service state instead. The receiver restores
    /// the state, fast-forwards its log to `applied_upto`, and resumes
    /// normal catch-up from there.
    Snapshot {
        /// First slot NOT covered by the snapshot (exclusive watermark).
        applied_upto: Slot,
        /// The sender's state digest at the watermark, for verification.
        state_hash: u64,
        /// The service-defined serialized state.
        state: Vec<u8>,
    },
}

const TAG_PREPARE: u8 = 1;
const TAG_PROMISE: u8 = 2;
const TAG_PROPOSE: u8 = 3;
const TAG_ACCEPT: u8 = 4;
const TAG_CATCHUP_QUERY: u8 = 5;
const TAG_CATCHUP_REPLY: u8 = 6;
const TAG_HEARTBEAT: u8 = 7;
const TAG_SUSPECT: u8 = 8;
const TAG_SNAPSHOT: u8 = 9;

impl ProtocolMsg {
    /// Short human-readable name of the message kind.
    pub fn kind(&self) -> &'static str {
        match self {
            ProtocolMsg::Prepare { .. } => "Prepare",
            ProtocolMsg::Promise { .. } => "Promise",
            ProtocolMsg::Propose { .. } => "Propose",
            ProtocolMsg::Accept { .. } => "Accept",
            ProtocolMsg::CatchupQuery { .. } => "CatchupQuery",
            ProtocolMsg::CatchupReply { .. } => "CatchupReply",
            ProtocolMsg::Heartbeat { .. } => "Heartbeat",
            ProtocolMsg::Suspect { .. } => "Suspect",
            ProtocolMsg::Snapshot { .. } => "Snapshot",
        }
    }
}

impl Codec for ProtocolMsg {
    fn encode(&self, buf: &mut BytesMut) {
        match self {
            ProtocolMsg::Prepare {
                view,
                first_unstable,
            } => {
                let mut w = WireWriter::new(buf);
                w.u8(TAG_PREPARE);
                w.u64(view.0);
                w.u64(first_unstable.0);
            }
            ProtocolMsg::Promise {
                view,
                decided_upto,
                accepted,
            } => {
                {
                    let mut w = WireWriter::new(buf);
                    w.u8(TAG_PROMISE);
                    w.u64(view.0);
                    w.u64(decided_upto.0);
                    w.u32(accepted.len() as u32);
                }
                for e in accepted {
                    e.encode(buf);
                }
            }
            ProtocolMsg::Propose { view, slot, batch } => {
                {
                    let mut w = WireWriter::new(buf);
                    w.u8(TAG_PROPOSE);
                    w.u64(view.0);
                    w.u64(slot.0);
                }
                batch.encode(buf);
            }
            ProtocolMsg::Accept { view, slot } => {
                let mut w = WireWriter::new(buf);
                w.u8(TAG_ACCEPT);
                w.u64(view.0);
                w.u64(slot.0);
            }
            ProtocolMsg::CatchupQuery { from, to } => {
                let mut w = WireWriter::new(buf);
                w.u8(TAG_CATCHUP_QUERY);
                w.u64(from.0);
                w.u64(to.0);
            }
            ProtocolMsg::CatchupReply {
                decided_upto,
                entries,
            } => {
                {
                    let mut w = WireWriter::new(buf);
                    w.u8(TAG_CATCHUP_REPLY);
                    w.u64(decided_upto.0);
                    w.u32(entries.len() as u32);
                }
                for (slot, batch) in entries {
                    WireWriter::new(buf).u64(slot.0);
                    batch.encode(buf);
                }
            }
            ProtocolMsg::Heartbeat { view, decided_upto } => {
                let mut w = WireWriter::new(buf);
                w.u8(TAG_HEARTBEAT);
                w.u64(view.0);
                w.u64(decided_upto.0);
            }
            ProtocolMsg::Suspect { view, from } => {
                let mut w = WireWriter::new(buf);
                w.u8(TAG_SUSPECT);
                w.u64(view.0);
                w.u16(from.0);
            }
            ProtocolMsg::Snapshot {
                applied_upto,
                state_hash,
                state,
            } => {
                let mut w = WireWriter::new(buf);
                w.u8(TAG_SNAPSHOT);
                w.u64(applied_upto.0);
                w.u64(*state_hash);
                w.bytes(state);
            }
        }
    }

    fn decode_from(r: &mut WireReader<'_>) -> Result<Self, DecodeError> {
        let tag = r.u8()?;
        match tag {
            TAG_PREPARE => Ok(ProtocolMsg::Prepare {
                view: View(r.u64()?),
                first_unstable: Slot(r.u64()?),
            }),
            TAG_PROMISE => {
                let view = View(r.u64()?);
                let decided_upto = Slot(r.u64()?);
                let n = r.u32()? as usize;
                let mut accepted = Vec::with_capacity(n.min(4096));
                for _ in 0..n {
                    accepted.push(AcceptedEntry::decode_from(r)?);
                }
                Ok(ProtocolMsg::Promise {
                    view,
                    decided_upto,
                    accepted,
                })
            }
            TAG_PROPOSE => {
                let view = View(r.u64()?);
                let slot = Slot(r.u64()?);
                let batch = Batch::decode_from(r)?;
                Ok(ProtocolMsg::Propose { view, slot, batch })
            }
            TAG_ACCEPT => Ok(ProtocolMsg::Accept {
                view: View(r.u64()?),
                slot: Slot(r.u64()?),
            }),
            TAG_CATCHUP_QUERY => Ok(ProtocolMsg::CatchupQuery {
                from: Slot(r.u64()?),
                to: Slot(r.u64()?),
            }),
            TAG_CATCHUP_REPLY => {
                let decided_upto = Slot(r.u64()?);
                let n = r.u32()? as usize;
                let mut entries = Vec::with_capacity(n.min(4096));
                for _ in 0..n {
                    let slot = Slot(r.u64()?);
                    let batch = Batch::decode_from(r)?;
                    entries.push((slot, batch));
                }
                Ok(ProtocolMsg::CatchupReply {
                    decided_upto,
                    entries,
                })
            }
            TAG_HEARTBEAT => Ok(ProtocolMsg::Heartbeat {
                view: View(r.u64()?),
                decided_upto: Slot(r.u64()?),
            }),
            TAG_SUSPECT => Ok(ProtocolMsg::Suspect {
                view: View(r.u64()?),
                from: ReplicaId(r.u16()?),
            }),
            TAG_SNAPSHOT => Ok(ProtocolMsg::Snapshot {
                applied_upto: Slot(r.u64()?),
                state_hash: r.u64()?,
                state: r.bytes()?,
            }),
            other => Err(DecodeError::new(
                "ProtocolMsg",
                format!("unknown tag {other}"),
            )),
        }
    }

    fn encoded_len(&self) -> usize {
        match self {
            ProtocolMsg::Prepare { .. } => 1 + 8 + 8,
            ProtocolMsg::Promise { accepted, .. } => {
                1 + 8
                    + 8
                    + 4
                    + accepted
                        .iter()
                        .map(AcceptedEntry::encoded_len)
                        .sum::<usize>()
            }
            ProtocolMsg::Propose { batch, .. } => 1 + 8 + 8 + batch.encoded_len(),
            ProtocolMsg::Accept { .. } => 1 + 8 + 8,
            ProtocolMsg::CatchupQuery { .. } => 1 + 8 + 8,
            ProtocolMsg::CatchupReply { entries, .. } => {
                1 + 8
                    + 4
                    + entries
                        .iter()
                        .map(|(_, b)| 8 + b.encoded_len())
                        .sum::<usize>()
            }
            ProtocolMsg::Heartbeat { .. } => 1 + 8 + 8,
            ProtocolMsg::Suspect { .. } => 1 + 8 + 2,
            ProtocolMsg::Snapshot { state, .. } => 1 + 8 + 8 + 4 + state.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::Request;
    use smr_types::{ClientId, RequestId, SeqNum};

    fn sample_batch() -> Batch {
        Batch::new(vec![
            Request::new(RequestId::new(ClientId(1), SeqNum(1)), vec![1, 2, 3]),
            Request::new(RequestId::new(ClientId(2), SeqNum(9)), vec![]),
        ])
    }

    fn roundtrip(msg: ProtocolMsg) {
        let bytes = msg.encode_to_vec();
        assert_eq!(
            bytes.len(),
            msg.encoded_len(),
            "encoded_len exact for {}",
            msg.kind()
        );
        assert_eq!(ProtocolMsg::decode(&bytes).unwrap(), msg);
    }

    #[test]
    fn all_variants_roundtrip() {
        roundtrip(ProtocolMsg::Prepare {
            view: View(3),
            first_unstable: Slot(10),
        });
        roundtrip(ProtocolMsg::Promise {
            view: View(3),
            decided_upto: Slot(5),
            accepted: vec![AcceptedEntry {
                slot: Slot(6),
                view: View(2),
                batch: sample_batch(),
            }],
        });
        roundtrip(ProtocolMsg::Propose {
            view: View(1),
            slot: Slot(0),
            batch: sample_batch(),
        });
        roundtrip(ProtocolMsg::Accept {
            view: View(1),
            slot: Slot(0),
        });
        roundtrip(ProtocolMsg::CatchupQuery {
            from: Slot(2),
            to: Slot(8),
        });
        roundtrip(ProtocolMsg::CatchupReply {
            decided_upto: Slot(9),
            entries: vec![(Slot(2), sample_batch()), (Slot(3), Batch::empty())],
        });
        roundtrip(ProtocolMsg::Heartbeat {
            view: View(0),
            decided_upto: Slot(0),
        });
        roundtrip(ProtocolMsg::Suspect {
            view: View(7),
            from: ReplicaId(2),
        });
        roundtrip(ProtocolMsg::Snapshot {
            applied_upto: Slot(128),
            state_hash: 0xDEAD_BEEF_CAFE_F00D,
            state: vec![7u8; 64],
        });
        roundtrip(ProtocolMsg::Snapshot {
            applied_upto: Slot(0),
            state_hash: 0,
            state: vec![],
        });
    }

    #[test]
    fn unknown_tag_rejected() {
        assert!(ProtocolMsg::decode(&[99]).is_err());
    }

    #[test]
    fn kind_names() {
        assert_eq!(
            ProtocolMsg::Accept {
                view: View(0),
                slot: Slot(0)
            }
            .kind(),
            "Accept"
        );
    }

    #[test]
    fn propose_size_fits_ethernet_frame_with_default_bsz() {
        // BSZ=1300 was chosen by the paper so one proposal fits one frame.
        let reqs: Vec<Request> = (0..8)
            .map(|i| Request::new(RequestId::new(ClientId(i), SeqNum(1)), vec![0u8; 128]))
            .collect();
        let msg = ProtocolMsg::Propose {
            view: View(1),
            slot: Slot(1),
            batch: Batch::new(reqs),
        };
        assert!(
            msg.encoded_len() < 1448,
            "proposal of 8x128B requests fits one MTU"
        );
    }
}
