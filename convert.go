package specsched

import "specsched/internal/traceio"

// traceInfoFromHeader maps the internal trace header onto the public
// TraceInfo record.
func traceInfoFromHeader(h traceio.Header) TraceInfo {
	return TraceInfo{
		Version:       h.Version,
		Generator:     h.Generator,
		UOps:          h.Count,
		Digest:        h.Digest,
		WrongPathSeed: h.WrongPathSeed,
	}
}
