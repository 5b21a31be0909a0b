package specsched

import "specsched/internal/worker"

// MaybeWorker is the subprocess-worker hook: call it at the very top of
// main, before flag parsing or any other setup. In a normal invocation it
// is a no-op that returns immediately. When the process was spawned as a
// sweep cell worker (SweepSpec.Workers / the daemon's worker mode re-exec the
// host binary with an internal environment marker), it instead serves cell
// requests on stdin/stdout until the supervisor closes the stream, then
// exits the process — main never proceeds.
//
// Binaries that skip this hook still work without SweepSpec.Workers; with it,
// their worker subprocesses hang silently at startup until the
// supervisor's handshake timeout kills them, after which cells fall back
// to in-process execution.
func MaybeWorker() { worker.MaybeServe() }
