//! The micro-batcher: coalesces concurrent explain calls into one
//! `explain_batch`.
//!
//! The first caller to arrive at an idle batcher becomes the **leader**: it
//! opens a collection window, sleeps through it, then runs one
//! [`AnySession::explain_batch`] over its own request plus every request
//! that joined while it slept. Followers park on a channel and receive their
//! response from the leader. The win is structural, not just syscall
//! amortization: requests sharing a lattice shape resolve against one sweep
//! (and one structure-cache entry) instead of racing to build their own,
//! and each level's parallel score pass spans the whole batch.
//!
//! Edge semantics:
//!
//! * window `0` disables coalescing — every call runs solo (the control arm
//!   of the `serve_qps` bench);
//! * a full batch (`max_batch`) stops admitting followers; latecomers run
//!   solo rather than waiting a second window;
//! * if the leader dies mid-batch (a panic in the sweep), its followers'
//!   channels disconnect and each follower gets an `Err` — a `500`, never a
//!   hang.

use crate::registry::AnySession;
use gopher_core::{ExplainRequest, ExplainResponse};
use gopher_par::{lock_recover, read_recover};
use std::sync::mpsc::{channel, Sender};
use std::sync::{Mutex, RwLock};
use std::time::Duration;

/// A follower's seat in a forming batch.
struct Waiter {
    request: ExplainRequest,
    reply: Sender<ExplainResponse>,
}

/// A batch being collected by a leader (the leader's own request is not in
/// here — it holds it on its stack).
struct Forming {
    waiters: Vec<Waiter>,
}

/// Per-session request coalescer. See the module docs for the protocol.
pub struct Batcher {
    window: Duration,
    max_batch: usize,
    /// `Some` while a leader is collecting.
    forming: Mutex<Option<Forming>>,
}

impl Batcher {
    /// A batcher with the given collection window and batch-size cap.
    /// `max_batch` counts the leader, so it is clamped to at least 2 — a
    /// cap of 1 is just `window == 0` with extra steps.
    pub fn new(window: Duration, max_batch: usize) -> Self {
        Self {
            window,
            max_batch: max_batch.max(2),
            forming: Mutex::new(None),
        }
    }

    /// The configured collection window.
    pub fn window(&self) -> Duration {
        self.window
    }

    /// Answers one request, possibly as part of a coalesced batch. `Err`
    /// only when this caller was a follower and its leader died before
    /// delivering (the HTTP layer's `500`).
    ///
    /// The session's read lock is taken only when a batch actually runs —
    /// a leader sleeping through its collection window holds no lock, so a
    /// concurrent `update` (the write side) interleaves with forming
    /// batches instead of stalling behind them.
    pub fn explain(
        &self,
        session: &RwLock<AnySession>,
        request: ExplainRequest,
    ) -> Result<ExplainResponse, String> {
        if self.window.is_zero() {
            return Ok(solo(session, request));
        }
        {
            let mut forming = lock_recover(&self.forming);
            match forming.as_mut() {
                None => {
                    // Idle: become the leader and start collecting.
                    *forming = Some(Forming {
                        waiters: Vec::new(),
                    });
                }
                Some(batch) if batch.waiters.len() + 1 < self.max_batch => {
                    // A leader is collecting and there is room: join it.
                    let (tx, rx) = channel();
                    batch.waiters.push(Waiter { request, reply: tx });
                    drop(forming);
                    return rx
                        .recv()
                        .map_err(|_| "batch leader failed before answering".to_string());
                }
                Some(_) => {
                    // Batch is full; don't queue behind a second window.
                    drop(forming);
                    return Ok(solo(session, request));
                }
            }
        }
        // Leader path. Sleep through the window, then take whatever joined.
        std::thread::sleep(self.window);
        let waiters = lock_recover(&self.forming)
            .take()
            .map(|f| f.waiters)
            .unwrap_or_default();

        let mut requests = Vec::with_capacity(1 + waiters.len());
        requests.push(request);
        let mut replies = Vec::with_capacity(waiters.len());
        for w in waiters {
            requests.push(w.request);
            replies.push(w.reply);
        }
        let mut responses = read_recover(session).explain_batch(&requests);
        // Deliver follower responses in join order; responses[0] is ours.
        // A disconnected receiver (client gave up) is fine to ignore.
        let followers: Vec<ExplainResponse> = responses.drain(1..).collect();
        for (reply, response) in replies.into_iter().zip(followers) {
            let _ = reply.send(response);
        }
        Ok(responses
            .pop()
            .expect("explain_batch returns one response per request"))
    }
}

fn solo(session: &RwLock<AnySession>, request: ExplainRequest) -> ExplainResponse {
    read_recover(session)
        .explain_batch(std::slice::from_ref(&request))
        .pop()
        .expect("explain_batch returns one response per request")
}
