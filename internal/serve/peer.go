// The networked peer layer: N rfidtrackd daemons, each owning a disjoint
// site set, form one logical cluster. Migration payloads leave through an
// HTTP transport — an RFM1 frame POSTed to the destination peer's
// /peer/migrate — and arrive in a keyed inbox the receiving checkpoint
// blocks on, which makes the peerSet a dist.Transport and lets the
// partitioned feed's determinism argument (see internal/dist/coord.go)
// carry over sockets unchanged.
//
// Delivery is at-least-once with idempotent receipt: the sender retries a
// POST while the error is Retryable (the peer may be restarting), the
// receiver deposits the first copy and ACKs duplicates, and a departure
// whose checkpoint has already completed locally is ACKed as stale without
// a deposit. A deposited payload is fsynced to the migration WAL segment
// before the ACK — regardless of Config.Strict — because the sender never
// re-sends after a 2xx, so an acknowledged payload must survive a crash:
// recovery re-deposits it from the log (or from the snapshot's PendingMigs
// when the log generation has been retired) and the caught-up checkpoints
// consume it exactly as the uninterrupted run would have.
package serve

import (
	"bytes"
	"cmp"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"rfidtrack/internal/dist"
	"rfidtrack/internal/model"
	"rfidtrack/internal/stream"
	"rfidtrack/internal/wal"
)

// defaultPeerRetryWindow bounds how long a peer outage is survivable: Send
// retries a refused migration POST, and Recv waits for a missing payload,
// for at most this long before failing the checkpoint.
const defaultPeerRetryWindow = 2 * time.Minute

// maxMigrateBytes bounds one /peer/migrate body: the largest legal RFM1
// frame plus its header and trailer.
const maxMigrateBytes = stream.MaxMigrationPayload + 64

// PeerStats is the /stats view of a clustered daemon: the topology it was
// started with, migration transport counters, and socket-level byte
// counts. SocketBytesSent/Recv measure real bytes on the wire to peers
// (frames plus HTTP framing), where Result.Links measures encoded payload
// bytes only — the gap is the protocol overhead the paper's cost model
// abstracts away.
type PeerStats struct {
	// Self is this daemon's index into Peers; SiteOwner maps each site to
	// the peer that owns it.
	Self      int      `json:"self"`
	Peers     []string `json:"peers"`
	SiteOwner []int    `json:"site_owner"`
	// MigrationsSent counts acknowledged POSTs to remote peers;
	// MigrationsReceived counts payloads deposited into the inbox;
	// StaleMigrations counts arrivals ACKed without a deposit because the
	// local checkpoint had already passed them; SendRetries counts POST
	// attempts beyond each first.
	MigrationsSent     int64 `json:"migrations_sent"`
	MigrationsReceived int64 `json:"migrations_received"`
	StaleMigrations    int64 `json:"stale_migrations,omitempty"`
	SendRetries        int64 `json:"send_retries,omitempty"`
	// InboxDepth is the number of deposited payloads no checkpoint has
	// consumed yet; OutboxDepth the acknowledged frames retained for
	// re-delivery to a promoted standby (aged out on the retry window).
	InboxDepth  int `json:"inbox_depth"`
	OutboxDepth int `json:"outbox_depth,omitempty"`
	// FencedArrivals counts peer requests refused with 409 because the
	// sender announced a fence epoch its slot has moved past — the
	// split-brain guard's trip counter.
	FencedArrivals int64 `json:"fenced_arrivals,omitempty"`
	// SocketBytesSent and SocketBytesRecv count bytes through the peer
	// HTTP client's connections (migrations out, gossip, responses).
	SocketBytesSent int64 `json:"socket_bytes_sent"`
	SocketBytesRecv int64 `json:"socket_bytes_recv"`
}

// countConn counts bytes through a peer connection, the measurement behind
// PeerStats.SocketBytes*.
type countConn struct {
	net.Conn
	in, out *atomic.Int64
}

// Read counts received bytes.
func (c *countConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	c.in.Add(int64(n))
	return n, err
}

// Write counts sent bytes.
func (c *countConn) Write(b []byte) (int, error) {
	n, err := c.Conn.Write(b)
	c.out.Add(int64(n))
	return n, err
}

// peerSet is the serve layer's dist.Transport: the client side POSTs RFM1
// frames to the owning peer, the server side (handlePeerMigrate) deposits
// them into the keyed inbox Recv blocks on. One peerSet serves one daemon.
type peerSet struct {
	self   int
	owner  []int // site -> peer
	window time.Duration
	hc     *http.Client

	// selfEpoch, when non-nil, is this daemon's fence epoch (shared with
	// the gossip table); every POST announces it so receivers can fence a
	// superseded sender (see gossip.go).
	selfEpoch *atomic.Int64

	urlMu sync.RWMutex
	urls  []string // guarded by urlMu: gossip rebinds a slot on takeover

	sockIn, sockOut atomic.Int64
	sent            atomic.Int64
	received        atomic.Int64
	stale           atomic.Int64
	retries         atomic.Int64
	fenced          atomic.Int64

	mu     sync.Mutex
	cond   *sync.Cond
	inbox  map[dist.Departure][]byte
	outbox map[dist.Departure]outboxEntry
	closed bool
}

// outboxEntry retains one acknowledged migration frame for possible
// re-delivery: a promoted standby recovers from the shipped WAL, which
// may predate payloads the dead primary ACKed after its last ship.
// Entries age out after the retry window (see prune).
type outboxEntry struct {
	frame []byte
	peer  int
	at    time.Time
}

// url returns peer i's current base URL.
func (p *peerSet) url(i int) string {
	p.urlMu.RLock()
	defer p.urlMu.RUnlock()
	return p.urls[i]
}

// setURL rebinds peer i's base URL — a promoted standby taking over the
// slot. In-flight Send retries pick the new address up on their next
// attempt.
func (p *peerSet) setURL(i int, u string) {
	p.urlMu.Lock()
	p.urls[i] = u
	p.urlMu.Unlock()
}

// newPeerSet builds the transport for one daemon: peer URLs, the
// site-ownership map, and a retry window (0 uses the default). Its HTTP
// client wraps every connection in a byte counter.
func newPeerSet(self int, owner []int, urls []string, window time.Duration) *peerSet {
	if window <= 0 {
		window = defaultPeerRetryWindow
	}
	p := &peerSet{
		self:   self,
		owner:  owner,
		urls:   append([]string(nil), urls...),
		window: window,
		inbox:  make(map[dist.Departure][]byte),
		outbox: make(map[dist.Departure]outboxEntry),
	}
	p.cond = sync.NewCond(&p.mu)
	dialer := &net.Dialer{Timeout: 5 * time.Second}
	p.hc = &http.Client{Transport: &http.Transport{
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			c, err := dialer.DialContext(ctx, network, addr)
			if err != nil {
				return nil, err
			}
			return &countConn{Conn: c, in: &p.sockIn, out: &p.sockOut}, nil
		},
		MaxIdleConnsPerHost: 4,
	}}
	return p
}

// migCkpt is the checkpoint that consumes a migration at epoch at: the
// first Δ boundary past it.
func migCkpt(at, interval model.Epoch) model.Epoch {
	return (at/interval + 1) * interval
}

// Send frames d's payload and POSTs it to the peer owning d.To, retrying
// Retryable refusals (connection errors, 5xx while the peer restarts) with
// exponential backoff for up to the retry window. A 2xx means the payload
// is durably deposited remotely; Send is never called again for d after
// that, so the checkpoint that triggered it completes exactly once.
func (p *peerSet) Send(d dist.Departure, payload []byte) error {
	peer := p.owner[d.To]
	if peer == p.self {
		// Unreachable through the partitioned feed (a both-local migration
		// never touches the transport), but harmless: loop it back.
		_, err := p.deposit(d, payload, nil)
		return err
	}
	frame := stream.AppendMigrationFrame(nil, d.Object, d.From, d.To, d.At, payload)
	attempts, err := p.postRetrying(peer, frame, &p.retries)
	if err == nil {
		p.sent.Add(1)
		p.retain(d, frame, peer)
		return nil
	}
	var he *HTTPError
	if errors.As(err, &he) && he.Status == http.StatusConflict {
		// The receiver fenced this daemon's epoch: its slot has been
		// taken over by a promoted standby. Permanent by construction —
		// retrying cannot make a stale epoch fresh.
		return fmt.Errorf("serve: migration of object %d (%d->%d at %d) refused by peer %d: %w: %v",
			d.Object, d.From, d.To, d.At, peer, ErrStaleEpoch, err)
	}
	return fmt.Errorf("serve: migration of object %d (%d->%d at %d) to peer %d failed after %d attempts: %w",
		d.Object, d.From, d.To, d.At, peer, attempts, err)
}

// postRetrying POSTs frame to the peer's /peer/migrate, retrying Retryable
// refusals with exponential backoff — 10 ms, doubling until it passes a
// second — until the retry window closes. It returns the attempts made and
// the last attempt's error; each retry bumps retries when it is non-nil.
func (p *peerSet) postRetrying(peer int, frame []byte, retries *atomic.Int64) (int, error) {
	deadline := time.Now().Add(p.window)
	backoff := 10 * time.Millisecond
	for attempt := 1; ; attempt++ {
		err := p.post(p.url(peer)+"/peer/migrate", frame)
		if err == nil || !Retryable(err) || time.Now().After(deadline) {
			return attempt, err
		}
		if retries != nil {
			retries.Add(1)
		}
		time.Sleep(backoff)
		if backoff < time.Second {
			backoff *= 2
		}
	}
}

// retain stores an acknowledged frame in the outbox for possible
// re-delivery to a promoted standby (see resendTo).
func (p *peerSet) retain(d dist.Departure, frame []byte, peer int) {
	p.mu.Lock()
	if !p.closed {
		p.outbox[d] = outboxEntry{frame: frame, peer: peer, at: time.Now()}
	}
	p.mu.Unlock()
}

// resendTo re-delivers every retained outbox frame bound for the given
// slot. Called (from a fresh goroutine) when gossip rebinds the slot to a
// promoted standby, whose recovered WAL may predate payloads the dead
// primary ACKed. Receipt is idempotent — the first copy wins and stale
// checkpoints ACK without depositing — so over-delivery is harmless, and
// delivery failures are dropped: the receiving checkpoint's own retry
// window has the final word.
func (p *peerSet) resendTo(peer int) {
	p.mu.Lock()
	frames := make([][]byte, 0, len(p.outbox))
	for _, e := range p.outbox {
		if e.peer == peer {
			frames = append(frames, e.frame)
		}
	}
	p.mu.Unlock()
	for _, frame := range frames {
		_, _ = p.postRetrying(peer, frame, nil) // a failure is dropped, as above
	}
}

// post sends one frame, mapping non-2xx statuses to *HTTPError so Send's
// retry gate sees 503 (peer draining/restarting) as retryable and 4xx
// (topology misconfiguration) as permanent.
func (p *peerSet) post(url string, frame []byte) error {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(frame))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	if p.selfEpoch != nil {
		req.Header.Set(peerHeader, strconv.Itoa(p.self))
		req.Header.Set(epochHeader, strconv.FormatInt(p.selfEpoch.Load(), 10))
	}
	resp, err := p.hc.Do(req)
	if err != nil {
		return err
	}
	return checkStatus(resp, nil)
}

// Recv blocks until d's payload has been deposited (by handlePeerMigrate,
// WAL replay or snapshot restore), bounded by the retry window so a dead
// sender fails the checkpoint instead of hanging Shutdown forever.
func (p *peerSet) Recv(d dist.Departure) ([]byte, error) {
	deadline := time.Now().Add(p.window)
	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		if b, ok := p.inbox[d]; ok {
			delete(p.inbox, d)
			return b, nil
		}
		if p.closed {
			return nil, fmt.Errorf("serve: peer transport closed awaiting migration of object %d (%d->%d at %d)",
				d.Object, d.From, d.To, d.At)
		}
		rem := time.Until(deadline)
		if rem <= 0 {
			return nil, fmt.Errorf("serve: no migration payload for object %d (%d->%d at %d) within %v; peer %d unreachable?",
				d.Object, d.From, d.To, d.At, p.window, p.owner[d.From])
		}
		timedCondWait(p.cond, rem)
	}
}

// timedCondWait waits on cond, giving up after d. The caller holds
// cond.L; a helper goroutine broadcasts at the deadline so Wait returns.
func timedCondWait(cond *sync.Cond, d time.Duration) {
	t := time.AfterFunc(d, cond.Broadcast)
	defer t.Stop()
	cond.Wait()
}

// deposit stores d's payload if no copy is already boxed (at-least-once
// senders duplicate; the first copy wins) and wakes Recv waiters. logIt,
// when non-nil, runs inside the same critical section as the deposit so a
// concurrent snapshot — which exports the inbox and rotates the migration
// segment under this mutex — sees the WAL append and the deposit as one
// event: the payload lands either in the old generation (covered by the
// snapshot's inbox export) or in the new one, never between.
func (p *peerSet) deposit(d dist.Departure, payload []byte, logIt func() error) (fresh bool, err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return false, ErrClosed
	}
	if _, ok := p.inbox[d]; ok {
		return false, nil
	}
	if logIt != nil {
		if err := logIt(); err != nil {
			return false, err
		}
	}
	p.inbox[d] = payload
	p.received.Add(1)
	p.cond.Broadcast()
	return true, nil
}

// prune drops deposited payloads whose checkpoint has already completed:
// a duplicate that re-arrived while its checkpoint was consuming the first
// copy would otherwise sit in the inbox forever. Called after every
// checkpoint with the new feed boundary.
func (p *peerSet) prune(next, interval model.Epoch) {
	cutoff := time.Now().Add(-p.window)
	p.mu.Lock()
	for d := range p.inbox {
		if migCkpt(d.At, interval) < next {
			delete(p.inbox, d)
		}
	}
	// Outbox entries age out on the retry window: past it a standby's
	// takeover re-delivery would arrive outside the window the receiving
	// checkpoint waits anyway, so retaining longer buys nothing.
	for d, e := range p.outbox {
		if e.at.Before(cutoff) {
			delete(p.outbox, d)
		}
	}
	p.mu.Unlock()
}

// exportAndRotate snapshots the unconsumed inbox — sorted by the global
// departure order so snapshot bytes are deterministic — and rotates the
// migration WAL segment in the same critical section (see deposit). l may
// be nil in tests.
func (p *peerSet) exportAndRotate(l *wal.Log, gen int) ([]wal.Migration, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	migs := make([]wal.Migration, 0, len(p.inbox))
	for d, b := range p.inbox {
		migs = append(migs, wal.Migration{D: d, Payload: append([]byte(nil), b...)})
	}
	slices.SortFunc(migs, func(a, b wal.Migration) int {
		if c := cmp.Compare(a.D.At, b.D.At); c != 0 {
			return c
		}
		if c := cmp.Compare(a.D.Object, b.D.Object); c != 0 {
			return c
		}
		if c := cmp.Compare(a.D.From, b.D.From); c != 0 {
			return c
		}
		return cmp.Compare(a.D.To, b.D.To)
	})
	if l != nil {
		if err := l.Rotate(wal.Migrations, gen); err != nil {
			return nil, err
		}
	}
	return migs, nil
}

// close wakes every blocked Recv with an error and drops idle
// connections. Deposits after close are refused with ErrClosed (the
// sender retries against the restarted daemon).
func (p *peerSet) close() {
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()
	p.cond.Broadcast()
	p.hc.CloseIdleConnections()
}

// stats assembles the PeerStats snapshot.
func (p *peerSet) stats() PeerStats {
	p.mu.Lock()
	depth := len(p.inbox)
	obox := len(p.outbox)
	p.mu.Unlock()
	p.urlMu.RLock()
	urls := append([]string(nil), p.urls...)
	p.urlMu.RUnlock()
	return PeerStats{
		Self:               p.self,
		Peers:              urls,
		SiteOwner:          p.owner,
		FencedArrivals:     p.fenced.Load(),
		OutboxDepth:        obox,
		MigrationsSent:     p.sent.Load(),
		MigrationsReceived: p.received.Load(),
		StaleMigrations:    p.stale.Load(),
		SendRetries:        p.retries.Load(),
		InboxDepth:         depth,
		SocketBytesSent:    p.sockOut.Load(),
		SocketBytesRecv:    p.sockIn.Load(),
	}
}

// handlePeerMigrate is the receiving half of the peer transport: decode
// the RFM1 frame (the body must be exactly one), refuse it when this daemon does not own the destination
// site, ACK without deposit when the local checkpoint has already passed
// it, otherwise log it durably and deposit it for the consuming
// checkpoint. The WAL commit happens before the ACK regardless of Strict:
// the sender treats 2xx as delivered forever.
func (s *Server) handlePeerMigrate(w http.ResponseWriter, r *http.Request) {
	if s.peers == nil {
		writeJSON(w, http.StatusNotFound, map[string]string{"error": "serve: daemon is not clustered"})
		return
	}
	if !contentTypeIs(r, "application/octet-stream") {
		s.reject415(w, r, "application/octet-stream")
		return
	}
	buf := binBodies.Get().(*bytes.Buffer)
	defer binBodies.Put(buf)
	buf.Reset()
	if _, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, maxMigrateBytes)); err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "reading migration frame: " + err.Error()})
		return
	}
	mf, size, err := stream.DecodeMigrationFrame(buf.Bytes())
	if err == nil && size != buf.Len() {
		err = fmt.Errorf("%w: %d bytes after the frame", stream.ErrFrameCorrupt, buf.Len()-size)
	}
	if err != nil {
		s.invMu.Lock()
		s.badFrames++
		s.lastInv = "migration frame: " + err.Error()
		s.invMu.Unlock()
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "migration frame: " + err.Error()})
		return
	}
	d := dist.Departure{Object: mf.Object, From: mf.From, To: mf.To, At: mf.At}
	n := len(s.shards)
	if d.From < 0 || d.From >= n || d.To < 0 || d.To >= n || d.At < 0 {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": fmt.Sprintf(
			"serve: migration frame %d->%d at %d invalid for %d sites", d.From, d.To, d.At, n)})
		return
	}
	if s.owner[d.To] != s.cfg.Self {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": fmt.Sprintf(
			"serve: site %d is owned by peer %d, not this daemon (peer %d)", d.To, s.owner[d.To], s.cfg.Self)})
		return
	}
	// Split-brain guard: a sender announcing an epoch its slot has been
	// fenced past is a superseded ex-primary; refusing with 409 (permanent
	// on the sender side) keeps its migrations out of a cluster that has
	// already moved on. See gossip.go.
	if err := s.checkPeerEpoch(r); err != nil {
		s.peers.fenced.Add(1)
		writeJSON(w, http.StatusConflict, map[string]string{"error": err.Error()})
		return
	}
	// Stale: the consuming checkpoint already completed here, so the first
	// copy of this payload was applied (or restored). ACK so the sender
	// stops re-sending; depositing again would leak an inbox entry.
	if model.Epoch(s.nextCkpt.Load()) > migCkpt(d.At, s.cfg.Interval) {
		s.peers.stale.Add(1)
		writeJSON(w, http.StatusOK, map[string]string{"status": "stale"})
		return
	}
	payload := append([]byte(nil), mf.Payload...) // mf views the request buffer
	fresh, err := s.peers.deposit(d, payload, func() error {
		if !s.walOn.Load() {
			return nil
		}
		return s.wal.AppendMigration(d, payload)
	})
	if err != nil {
		status := http.StatusInternalServerError
		if err == ErrClosed {
			status = http.StatusServiceUnavailable
		}
		writeJSON(w, status, map[string]string{"error": err.Error()})
		return
	}
	if fresh && s.walOn.Load() {
		if err := s.wal.Commit(); err != nil {
			s.walFail(err)
			writeJSON(w, http.StatusInternalServerError, map[string]string{"error": "serve: migration WAL commit: " + err.Error()})
			return
		}
	}
	writeJSON(w, http.StatusAccepted, map[string]string{"status": "ok"})
}

// ONSResponse is the GET /ons reply: the naming service's current owner
// site for one tag.
type ONSResponse struct {
	Tag  model.TagID `json:"tag"`
	Site int         `json:"site"`
}

// handleONS answers a naming-service lookup from this daemon's ONS
// mirror, which is complete on every peer because departures broadcast
// cluster-wide.
func (s *Server) handleONS(w http.ResponseWriter, r *http.Request) {
	tag, err := intParam(r, "tag", -1)
	if err != nil || tag < 0 {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "missing or non-integer ?tag="})
		return
	}
	if tag >= s.cluster.World.NumTags() {
		writeJSON(w, http.StatusNotFound, map[string]string{"error": fmt.Sprintf("serve: unknown tag %d", tag)})
		return
	}
	writeJSON(w, http.StatusOK, ONSResponse{Tag: model.TagID(tag), Site: s.cluster.ONSLookup(model.TagID(tag))})
}

// ONSLookup resolves a tag's owning site through the daemon's naming
// service (GET /ons).
func (c *Client) ONSLookup(tag model.TagID) (int, error) {
	resp, err := c.httpClient().Get(fmt.Sprintf("%s/ons?tag=%d", c.BaseURL, tag))
	if err != nil {
		return 0, err
	}
	var or ONSResponse
	if err := checkStatus(resp, &or); err != nil {
		return 0, err
	}
	return or.Site, nil
}
