//! Drivers that run a workload [`Script`] over each of the three systems
//! the paper compares: BFS (replicated with BFT), NO-REP, and NFS-STD.
//!
//! The script and the NFS-client cache model are identical across
//! systems; only the transport (BFT client vs plain datagrams) and the
//! server's cost model differ — exactly the controlled comparison of
//! Section 5.

use crate::direct::{DirectApi, DirectDriver};
use crate::script::{Drive, Script, ScriptRunner};
use bft_core::client::{ClientApi, ClientDriver};
use bft_core::wire::Wire;
use bft_fs::client::NfsClientConfig;
use bft_fs::ops::NfsResult;

/// Runs a script through the BFT client (the BFS configuration).
pub struct BfsScriptDriver {
    runner: ScriptRunner,
    /// Simulated time when the script finished (ns), if done.
    pub finished_at_ns: Option<u64>,
}

impl BfsScriptDriver {
    /// Creates the driver.
    pub fn new(script: Script, client_cfg: NfsClientConfig) -> BfsScriptDriver {
        BfsScriptDriver {
            runner: ScriptRunner::new(script, client_cfg),
            finished_at_ns: None,
        }
    }

    /// The underlying runner (progress/statistics).
    pub fn runner(&self) -> &ScriptRunner {
        &self.runner
    }

    fn pump(&mut self, api: &mut ClientApi<'_, '_>, mut response: Option<NfsResult>) {
        loop {
            match self.runner.advance(response.take().as_ref()) {
                Drive::Rpc(op) => {
                    let read_only = op.is_read_only();
                    api.submit(op.to_bytes(), read_only);
                    return;
                }
                Drive::Compute(ns) => api.charge(ns),
                Drive::Done => {
                    if self.finished_at_ns.is_none() {
                        self.finished_at_ns = Some(api.now().nanos());
                    }
                    return;
                }
            }
        }
    }
}

impl ClientDriver for BfsScriptDriver {
    fn on_start(&mut self, api: &mut ClientApi<'_, '_>) {
        self.pump(api, None);
    }

    fn on_complete(&mut self, api: &mut ClientApi<'_, '_>, result: &[u8], _latency: u64) {
        let response =
            NfsResult::from_bytes(result).unwrap_or(NfsResult::Err(bft_fs::ops::NfsError::Inval));
        self.pump(api, Some(response));
    }
}

/// Runs a script over plain datagrams (the NO-REP and NFS-STD
/// configurations — they differ only in the server's cost model).
pub struct DirectScriptDriver {
    runner: ScriptRunner,
    /// Simulated time when the script finished (ns), if done.
    pub finished_at_ns: Option<u64>,
}

impl DirectScriptDriver {
    /// Creates the driver.
    pub fn new(script: Script, client_cfg: NfsClientConfig) -> DirectScriptDriver {
        DirectScriptDriver {
            runner: ScriptRunner::new(script, client_cfg),
            finished_at_ns: None,
        }
    }

    /// The underlying runner.
    pub fn runner(&self) -> &ScriptRunner {
        &self.runner
    }

    fn pump(&mut self, api: &mut DirectApi<'_, '_>, mut response: Option<NfsResult>) {
        loop {
            match self.runner.advance(response.take().as_ref()) {
                Drive::Rpc(op) => {
                    api.submit(op.to_bytes());
                    return;
                }
                Drive::Compute(ns) => api.charge(ns),
                Drive::Done => {
                    if self.finished_at_ns.is_none() {
                        self.finished_at_ns = Some(api.now().nanos());
                    }
                    return;
                }
            }
        }
    }
}

impl DirectDriver for DirectScriptDriver {
    fn on_start(&mut self, api: &mut DirectApi<'_, '_>) {
        self.pump(api, None);
    }

    fn on_complete(&mut self, api: &mut DirectApi<'_, '_>, result: &[u8], _latency: u64) {
        let response =
            NfsResult::from_bytes(result).unwrap_or(NfsResult::Err(bft_fs::ops::NfsError::Inval));
        self.pump(api, Some(response));
    }
}
