// Migration protocol of the cluster runtime.
//
// A departing object's state crosses sites as one encoded payload:
//
//	[inference state]   AppendCollapsed or AppendCR bytes, absent for
//	                    MigrateNone
//	[query flag]        1 byte, present only when a ClusterQuery is
//	                    attached: 1 = pattern state follows, 0 = none
//	[query state]       stream.AppendState bytes when the flag is 1
//
// The payload is produced at the source site after it has ingested the
// departure checkpoint's readings and applied every earlier migration
// touching it, and consumed at the destination before that checkpoint's
// inference runs there — on one peer or across two (see Feed.migrate).
package dist

import (
	"fmt"

	"rfidtrack/internal/model"
	"rfidtrack/internal/rfinfer"
	"rfidtrack/internal/stream"
)

// hasQuerySection reports whether migration payloads carry the query
// pattern-state section. Encoder and decoder must agree, so both key off
// the attached ClusterQuery rather than any per-site state.
func (c *Cluster) hasQuerySection() bool { return c.Query != nil }

// encodePayload exports and encodes the migrating state for d from the
// source engines. engineBytes and queryBytes report the wire size of the
// two sections for cost accounting.
func (c *Cluster) encodePayload(d Departure) (payload []byte, engineBytes, queryBytes int, err error) {
	if c.Strategy == MigrateNone && !c.hasQuerySection() {
		return nil, 0, 0, nil
	}
	// A weights payload with its query section takes about a hundred bytes
	// (Table 5), so it is appended without regrowing.
	payload = make([]byte, 0, 128)
	if c.Strategy != MigrateNone {
		src := c.Engines[d.From]
		switch c.Strategy {
		case MigrateWeights:
			st, err := src.ExportCollapsed(d.Object)
			if err != nil {
				return nil, 0, 0, err
			}
			payload = rfinfer.AppendCollapsed(payload, st)
		case MigrateReadings, MigrateFull:
			st, err := src.ExportCR(d.Object)
			if err != nil {
				return nil, 0, 0, err
			}
			if c.Strategy == MigrateReadings {
				clipCR(&st, d.At-c.recentHistory(), d.At+1)
			}
			payload = rfinfer.AppendCR(payload, st)
		}
		engineBytes = len(payload)
	}
	if c.hasQuerySection() {
		if st, ok := c.siteQ[d.From].ExportState(d.Object); ok {
			payload = append(payload, 1)
			before := len(payload)
			payload = stream.AppendState(payload, &st)
			queryBytes = len(payload) - before
		} else {
			payload = append(payload, 0)
		}
	}
	return payload, engineBytes, queryBytes, nil
}

// applyPayload decodes a migration payload and imports it into the
// destination engines. Decoding from the wire bytes — rather than handing
// structs across — is deliberate: it keeps the in-process and cross-peer
// transfers on the exact same import path and exercises the codecs the fuzz
// targets harden.
func (c *Cluster) applyPayload(d Departure, payload []byte) error {
	if len(payload) == 0 {
		return nil
	}
	r := model.NewReader(payload)
	if c.Strategy != MigrateNone {
		dst := c.Engines[d.To]
		switch c.Strategy {
		case MigrateWeights:
			st, err := rfinfer.DecodeCollapsed(r)
			if err != nil {
				return fmt.Errorf("dist: decoding collapsed state for object %d: %w", d.Object, err)
			}
			dst.ImportCollapsed(st)
		case MigrateReadings, MigrateFull:
			st, err := rfinfer.DecodeCR(r)
			if err != nil {
				return fmt.Errorf("dist: decoding CR state for object %d: %w", d.Object, err)
			}
			dst.ImportCR(st)
		}
	}
	if c.hasQuerySection() {
		flag := r.Byte()
		if err := r.Err(); err != nil {
			return fmt.Errorf("dist: truncated query section for object %d: %w", d.Object, err)
		}
		if flag == 1 {
			st, err := stream.DecodeState(r)
			if err != nil {
				return fmt.Errorf("dist: decoding query state for object %d: %w", d.Object, err)
			}
			c.siteQ[d.To].ImportState(d.Object, st)
		}
	}
	if r.Len() != 0 {
		return fmt.Errorf("dist: %d trailing bytes in migration payload for object %d", r.Len(), d.Object)
	}
	return nil
}

func (c *Cluster) recentHistory() model.Epoch {
	if c.cfg.RecentHistory > 0 {
		return c.cfg.RecentHistory
	}
	return rfinfer.DefaultConfig().RecentHistory
}

// clipCR windows the shipped reading histories to the critical region plus
// recent history [recFrom, recTo): the CR migration method of Section 4.1.
func clipCR(st *rfinfer.CRState, recFrom, recTo model.Epoch) {
	keep := func(s model.Series) model.Series {
		out := s[:0]
		for _, rd := range s {
			inRecent := rd.T >= recFrom && rd.T < recTo
			inCR := rd.T >= st.CR.From && rd.T < st.CR.To
			if inRecent || inCR {
				out = append(out, rd)
			}
		}
		return out
	}
	st.ObjectHist = keep(st.ObjectHist)
	for id, s := range st.ContHist {
		if clipped := keep(s); len(clipped) > 0 {
			st.ContHist[id] = clipped
		} else {
			delete(st.ContHist, id)
		}
	}
}
