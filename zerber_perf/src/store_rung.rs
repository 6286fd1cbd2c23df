//! The store rung of the ladder: the calls `IndexServer::handle_query` makes
//! into `ListStore` for one session, made again from outside.
//!
//! The server answers the first request of a session with `fetch_ranged`,
//! the second with `fetch_ranged` at the client's offset plus `open_cursor`,
//! every later one with `cursor_fetch`, and closes the cursor when the
//! client stops early.  The replay makes the same calls with the same
//! ranges under its own session tag.

use zerber_base::MergedListId;
use zerber_corpus::GroupId;
use zerber_protocol::IndexServer;
use zerber_store::{CursorId, ListStore, RangedBatch, RangedFetch};

use crate::bed::Script;
use crate::spans::{SpanId, Tracer};

/// Session tag of replayed cursors (the server derives its own from the
/// user name; any non-zero tag the replay keeps to itself works).
const OWNER: u64 = 0x7a65_7262_6572;

/// Span names of one use of the rung.
pub struct Rung {
    /// A `fetch_ranged` or `cursor_fetch` during which no page faulted.
    pub fetch: &'static str,
    /// The same, when `page_faults` advanced.
    pub fault: &'static str,
    /// `open_cursor` and `close_cursor`.
    pub cursor: &'static str,
    /// Read `IndexServer::stats()` around every fetch to tell the two
    /// apart.  Only worth its cost on an engine that can fault.
    pub classify: bool,
}

/// Replays after the parent span: the pages the parent touched are cached.
pub const REPLAY: Rung = Rung {
    fetch: "store.fetch",
    fault: "store.fetch.fault",
    cursor: "store.cursor",
    classify: false,
};

/// Store calls made *before* the session they belong to, so they meet the
/// cache the way the real call would.
pub const FIRST: Rung = Rung {
    fetch: "store.first.fetch",
    fault: "store.first.fetch.fault",
    cursor: "store.first.cursor",
    classify: true,
};

/// Makes the session's store calls, each in its own span under `parent`.
/// Returns the number of elements fetched.
pub fn replay(
    tracer: &mut Tracer,
    server: &IndexServer,
    groups: &[GroupId],
    script: &Script,
    parent: Option<SpanId>,
    op_id: u64,
    rung: &Rung,
) -> u64 {
    let store: &dyn ListStore = server.store();
    let list = MergedListId(script.list);
    let mut cursor = CursorId::NONE;
    let mut offset = 0usize;
    let mut fetched = 0u64;
    for (round, &count) in script.counts.iter().enumerate() {
        let count = count as usize;
        let faults_before = if rung.classify {
            server.stats().page_faults
        } else {
            0
        };
        let start_ns = tracer.now_ns();
        let batch: Option<RangedBatch> = if cursor.is_some() {
            store.cursor_fetch(cursor, OWNER, count, Some(groups)).ok()
        } else {
            let fetch = RangedFetch {
                list,
                offset,
                count,
            };
            store.fetch_ranged(&fetch, Some(groups)).ok()
        };
        let end_ns = tracer.now_ns();
        let faulted = rung.classify && server.stats().page_faults > faults_before;
        let Some(batch) = batch else {
            break;
        };
        tracer.record(crate::spans::Span {
            name: if faulted { rung.fault } else { rung.fetch },
            start_ns,
            end_ns,
            parent,
            op_id,
            items: batch.elements.len() as u64,
        });
        offset += batch.elements.len();
        fetched += batch.elements.len() as u64;
        if batch.exhausted {
            // The server closes the session itself once the list ends.
            if cursor.is_some() {
                tracer.time(rung.cursor, parent, op_id, || {
                    store.close_cursor(cursor, OWNER);
                    ((), 1)
                });
                cursor = CursorId::NONE;
            }
            break;
        }
        // Sessions open on the first follow-up, as in `IndexServer::serve`.
        if round >= 1 && cursor == CursorId::NONE {
            let (_, opened) = tracer.time(rung.cursor, parent, op_id, || {
                let id = store
                    .open_cursor(list, OWNER, &batch, offset, Some(groups))
                    .unwrap_or(CursorId::NONE);
                (id, 1)
            });
            cursor = opened;
        }
    }
    if cursor.is_some() {
        tracer.time(rung.cursor, parent, op_id, || {
            store.close_cursor(cursor, OWNER);
            ((), 1)
        });
    }
    fetched
}
