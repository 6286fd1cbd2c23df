//! The oracle: the naive model every answer of the serving engine is held
//! against, written the way the `ListStore` contract states it.
//!
//! Every merged list is a plain descending-TRS `Vec<OrderedElement>`, and
//! the whole store sits behind one `Mutex`.  Visibility is a linear
//! `contains` on the caller's filter exactly as given.  A session is a list,
//! an owner tag and the physical position of its next element:
//!
//! * an open resumes just past the `delivered`-th element the session's
//!   filter sees in the list as it is now (at 0 when nothing was delivered,
//!   at the end when the list holds fewer);
//! * a follow-up scans on from the position and moves it just past the
//!   last element it returned (to the end when it ran out);
//! * an insert lands after every strictly greater TRS and before equal
//!   ones, and moves every cursor of its list whose position is past the
//!   insertion point;
//! * only the owner closes a session.
//!
//! There are no generations, no capacity eviction and no lock meter, so a
//! batch's `generation` reads 0 and every metric reads 0.  It shares no
//! code with the engine: the suites that include it (by `#[path]`,
//! like the fault doubles) hold the engine's sessions against this model,
//! not against themselves.

use std::collections::HashMap;
use std::sync::{Mutex, MutexGuard};

use zerber_suite::corpus::GroupId;
use zerber_suite::store::{
    CursorId, ListStore, RangedBatch, RangedFetch, SessionStats, StoreError, StoreMetrics,
};
use zerber_suite::zerber::{MergePlan, MergedListId};
use zerber_suite::zerber_r::{OrderedElement, OrderedIndex, TRS_BYTES};

#[derive(Debug)]
struct Session {
    list: usize,
    owner: u64,
    position: usize,
}

#[derive(Debug)]
struct State {
    lists: Vec<Vec<OrderedElement>>,
    sessions: HashMap<u64, Session>,
    opened: u64,
}

/// The model store; see the module doc.
#[derive(Debug)]
pub struct Oracle {
    plan: MergePlan,
    state: Mutex<State>,
}

impl Oracle {
    pub fn new(index: OrderedIndex) -> Oracle {
        let (lists, plan) = index.into_parts();
        Oracle {
            plan,
            state: Mutex::new(State {
                lists,
                sessions: HashMap::new(),
                opened: 0,
            }),
        }
    }

    fn state(&self) -> MutexGuard<'_, State> {
        self.state.lock().expect("oracle lock")
    }
}

impl State {
    fn list(&self, list: MergedListId) -> Result<&Vec<OrderedElement>, StoreError> {
        self.lists
            .get(list.0 as usize)
            .ok_or(StoreError::UnknownList(list.0))
    }
}

fn visible(element: &OrderedElement, accessible: Option<&[GroupId]>) -> bool {
    accessible.is_none_or(|groups| groups.contains(&element.group))
}

/// From physical position `start`, skips `skip` visible elements and
/// returns up to `count` more, with the position just past the last one
/// returned (the end of the list when fewer were left).
fn scan(
    list: &[OrderedElement],
    start: usize,
    skip: usize,
    count: usize,
    accessible: Option<&[GroupId]>,
) -> RangedBatch {
    let hits: Vec<usize> = (start..list.len())
        .filter(|&i| visible(&list[i], accessible))
        .skip(skip)
        .take(count)
        .collect();
    let next_physical = match hits.last() {
        Some(&last) if hits.len() == count => last + 1,
        _ => list.len().max(start),
    };
    RangedBatch {
        elements: hits.iter().map(|&i| list[i].clone()).collect(),
        next_physical,
        visible_total: list.iter().filter(|e| visible(e, accessible)).count(),
        exhausted: next_physical >= list.len(),
        generation: 0,
    }
}

impl ListStore for Oracle {
    fn plan(&self) -> &MergePlan {
        &self.plan
    }

    fn num_shards(&self) -> usize {
        1
    }

    fn shard_of(&self, _list: MergedListId) -> usize {
        0
    }

    fn num_elements(&self) -> usize {
        self.state().lists.iter().map(Vec::len).sum()
    }

    fn stored_bytes(&self) -> usize {
        let state = self.state();
        let elements = state.lists.iter().flatten();
        elements.map(|e| e.sealed.stored_bytes() + TRS_BYTES).sum()
    }

    fn metrics(&self) -> StoreMetrics {
        StoreMetrics::default()
    }

    fn list_len(&self, list: MergedListId) -> Result<usize, StoreError> {
        Ok(self.state().list(list)?.len())
    }

    fn visible_len(
        &self,
        list: MergedListId,
        accessible: Option<&[GroupId]>,
    ) -> Result<usize, StoreError> {
        let state = self.state();
        let list = state.list(list)?;
        Ok(list.iter().filter(|e| visible(e, accessible)).count())
    }

    fn snapshot_list(&self, list: MergedListId) -> Result<Vec<OrderedElement>, StoreError> {
        Ok(self.state().list(list)?.clone())
    }

    fn fetch_ranged(
        &self,
        fetch: &RangedFetch,
        accessible: Option<&[GroupId]>,
    ) -> Result<RangedBatch, StoreError> {
        let state = self.state();
        let list = state.list(fetch.list)?;
        Ok(scan(list, 0, fetch.offset, fetch.count, accessible))
    }

    fn open_cursor(
        &self,
        list: MergedListId,
        owner: u64,
        _batch: &RangedBatch,
        delivered: usize,
        accessible: Option<&[GroupId]>,
    ) -> Result<CursorId, StoreError> {
        let mut state = self.state();
        let elements = state.list(list)?;
        let position = match delivered.checked_sub(1) {
            None => 0,
            Some(last) => (0..elements.len())
                .filter(|&i| visible(&elements[i], accessible))
                .nth(last)
                .map_or(elements.len(), |i| i + 1),
        };
        state.opened += 1;
        let (id, list) = (state.opened, list.0 as usize);
        let session = Session {
            list,
            owner,
            position,
        };
        state.sessions.insert(id, session);
        Ok(CursorId(id))
    }

    fn cursor_fetch(
        &self,
        cursor: CursorId,
        owner: u64,
        count: usize,
        accessible: Option<&[GroupId]>,
    ) -> Result<RangedBatch, StoreError> {
        let mut state = self.state();
        let State {
            lists, sessions, ..
        } = &mut *state;
        let session = sessions
            .get_mut(&cursor.0)
            .filter(|s| s.owner == owner)
            .ok_or(StoreError::UnknownCursor(cursor.0))?;
        let batch = scan(&lists[session.list], session.position, 0, count, accessible);
        session.position = batch.next_physical;
        Ok(batch)
    }

    fn close_cursor(&self, cursor: CursorId, owner: u64) {
        let mut state = self.state();
        if state
            .sessions
            .get(&cursor.0)
            .is_some_and(|s| s.owner == owner)
        {
            state.sessions.remove(&cursor.0);
        }
    }

    fn session_stats(&self) -> SessionStats {
        let state = self.state();
        SessionStats {
            open: state.sessions.len(),
            opened_total: state.opened,
            ..SessionStats::default()
        }
    }

    fn insert(&self, list: MergedListId, element: OrderedElement) -> Result<usize, StoreError> {
        let mut state = self.state();
        state.list(list)?;
        let slot = list.0 as usize;
        let elements = &mut state.lists[slot];
        let pos = elements.partition_point(|e| e.trs > element.trs);
        elements.insert(pos, element);
        for session in state.sessions.values_mut() {
            if session.list == slot && session.position > pos {
                session.position += 1;
            }
        }
        Ok(pos)
    }

    fn verify_ordering(&self) -> bool {
        let state = self.state();
        let mut lists = state.lists.iter();
        lists.all(|l| l.windows(2).all(|w| w[0].trs >= w[1].trs))
    }
}
