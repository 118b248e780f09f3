//! The windowed host loop behind the streaming kernels.
//!
//! STREAM Triad, RandomAccess, BFS and the histogram drive the device
//! the same way: keep up to a window of tagged requests in flight,
//! spread the sends round-robin over a cube's host links, take a
//! refused send as "the window is full this cycle", and match every
//! response to the request it answers. [`Window`] is that bookkeeping,
//! kept once; a kernel keeps only what to issue next and what to do
//! with an answer.

use hmc_sim::{HmcSim, TrackedResponse};
use hmc_types::{HmcError, Tag};
use std::collections::BTreeMap;

/// What [`Window::send`] did with a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Sent {
    /// In flight under a tag; its answer comes back through
    /// [`Window::recv`].
    Tracked,
    /// A posted request: accepted, and nothing will answer it.
    Posted,
    /// The link refused it (a stall, or no free tag): the window is
    /// full this cycle.
    Full,
}

/// The requests a kernel has in flight, and where its next one goes.
pub(crate) struct Window<P> {
    /// Host links of each entry cube.
    links: Vec<usize>,
    /// Sends each entry cube has placed: the next one enters on link
    /// `placed[cube] % links[cube]`.
    placed: Vec<usize>,
    /// Requests in flight per entry cube.
    in_flight: Vec<usize>,
    /// Every request in flight with its issue cycle, keyed by (entry
    /// cube, entry link, tag). The tag belongs to the link the request
    /// entered on, not to the one its response arrives on: the two
    /// differ after a link failover. Ordered, so the overdue scan is
    /// deterministic.
    ledger: BTreeMap<(usize, usize, Tag), (P, u64)>,
    /// The host link an unfinished [`recv`](Self::recv) drain resumes
    /// at.
    draining: usize,
}

impl<P: Copy> Window<P> {
    /// An empty window over the host links of cubes `0..cubes`.
    pub(crate) fn new(sim: &HmcSim, cubes: usize) -> Result<Self, HmcError> {
        let links = (0..cubes)
            .map(|cube| sim.device_config(cube).map(|c| c.links))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Window {
            placed: vec![0; cubes],
            in_flight: vec![0; cubes],
            links,
            ledger: BTreeMap::new(),
            draining: 0,
        })
    }

    /// Requests in flight that entered at `cube`.
    pub(crate) fn in_flight(&self, cube: usize) -> usize {
        self.in_flight[cube]
    }

    /// True when nothing is in flight.
    pub(crate) fn is_empty(&self) -> bool {
        self.ledger.is_empty()
    }

    /// FLITs the window's cubes have carried over their host links so
    /// far, requests plus responses.
    pub(crate) fn host_flits(&self, sim: &HmcSim) -> Result<u64, HmcError> {
        (0..self.links.len()).map(|cube| sim.stats(cube).map(|s| s.rqst_flits + s.rsp_flits)).sum()
    }

    /// Issues one request at `cube` on its next link: `send(sim, link)`
    /// makes the call. An accepted request moves the cube's cursor on,
    /// and a tagged one enters the ledger as `pending`. `Stall` and
    /// `TagsExhausted` are [`Sent::Full`]; any other error is returned
    /// and leaves the cursor where it was.
    pub(crate) fn send(
        &mut self,
        sim: &mut HmcSim,
        cube: usize,
        pending: P,
        send: impl FnOnce(&mut HmcSim, usize) -> Result<Option<Tag>, HmcError>,
    ) -> Result<Sent, HmcError> {
        let link = self.placed[cube] % self.links[cube];
        let tag = match send(sim, link) {
            Ok(tag) => tag,
            Err(HmcError::Stall | HmcError::TagsExhausted) => return Ok(Sent::Full),
            Err(e) => return Err(e),
        };
        self.placed[cube] += 1;
        let Some(tag) = tag else { return Ok(Sent::Posted) };
        self.ledger.insert((cube, link, tag), (pending, sim.cycle()));
        self.in_flight[cube] += 1;
        Ok(Sent::Tracked)
    }

    /// Moves `cube`'s cursor past its current link (one the caller
    /// found down).
    pub(crate) fn skip_link(&mut self, cube: usize) {
        self.placed[cube] += 1;
    }

    /// The next response waiting on one of `cube`'s host links that
    /// answers a request in the window, with that request's record.
    /// Links drain in order, each until empty, and responses the window
    /// did not ask for are dropped. `None` means every link is empty;
    /// the next call starts a new drain.
    pub(crate) fn recv(&mut self, sim: &mut HmcSim, cube: usize) -> Option<(P, TrackedResponse)> {
        while self.draining < self.links[cube] {
            let Some(rsp) = sim.recv(cube, self.draining) else {
                self.draining += 1;
                continue;
            };
            let key = (cube, rsp.entry_link, rsp.rsp.head.tag);
            if let Some((pending, _)) = self.ledger.remove(&key) {
                self.in_flight[cube] -= 1;
                return Some((pending, rsp));
            }
        }
        self.draining = 0;
        None
    }

    /// Abandons every request in flight for `timeout` cycles or more
    /// (stuck behind a downed link): the device takes the tag back, now
    /// or when the late response surfaces, and the records come back in
    /// ledger order for the kernel to issue again.
    pub(crate) fn abandon_overdue(&mut self, sim: &mut HmcSim, timeout: u64) -> Vec<P> {
        let now = sim.cycle();
        let in_flight = &mut self.in_flight;
        let mut overdue = Vec::new();
        self.ledger.retain(|&(cube, link, tag), &mut (pending, issued)| {
            if now.saturating_sub(issued) < timeout {
                return true;
            }
            let _ = sim.abandon_tag(cube, link, tag);
            in_flight[cube] -= 1;
            overdue.push(pending);
            false
        });
        overdue
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmc_sim::{DeviceConfig, FaultPlan};
    use hmc_types::HmcRqst;

    #[test]
    fn a_failed_over_response_is_matched_by_its_entry_link() {
        // Link 1 goes down while the read it carried is in the vault.
        let mut config = DeviceConfig::gen2_4link_4gb();
        config.fault = FaultPlan::seeded(1).with_link_event(1, 1, false);
        let mut sim = HmcSim::new(config).unwrap();
        let mut window = Window::new(&sim, 1).unwrap();
        window.skip_link(0);
        let sent = window.send(&mut sim, 0, 'a', |sim, link| {
            sim.send_simple(0, link, HmcRqst::Rd16, 0x40, [])
        });
        assert_eq!(sent, Ok(Sent::Tracked));
        assert_eq!(window.in_flight(0), 1);

        while (0..4).all(|link| sim.pending_responses(0, link) == 0) {
            assert!(sim.cycle() < 20, "the read is answered");
            sim.clock();
        }
        assert_eq!(sim.pending_responses(0, 2), 1, "answered on the next link up");
        let (pending, rsp) = window.recv(&mut sim, 0).expect("matched by its entry link");
        assert_eq!((pending, rsp.entry_link), ('a', 1));
        assert!(window.is_empty());
        assert!(window.recv(&mut sim, 0).is_none());
    }
}
