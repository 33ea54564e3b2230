package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"rfidtrack/internal/dist"
	"rfidtrack/internal/rfinfer"
	"rfidtrack/internal/wal"
)

// TestReplSubscribeRefusesImpossiblePos pins that a ship position no
// follower can hold — a negative file size, or more of the snapshot than
// the primary wrote — is a 400 the standby can report, not a 500 it
// retries forever, while a well-formed position still ships.
func TestReplSubscribeRefusesImpossiblePos(t *testing.T) {
	w := testWorld(t)
	srv, err := New(dist.NewCluster(w, dist.MigrateNone, rfinfer.DefaultConfig()),
		Config{Interval: 300, Horizon: w.Epochs, DataDir: t.TempDir(), SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	m, err := srv.SnapshotNow()
	if err != nil {
		t.Fatal(err)
	}

	subscribe := func(pos wal.ShipPos) int {
		t.Helper()
		b, err := json.Marshal(pos)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+"/repl/subscribe", "application/json", bytes.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	for _, tc := range []struct {
		what string
		pos  wal.ShipPos
		code int
	}{
		{"negative segment size", wal.ShipPos{Files: map[string]int64{"site-0.000001.wal": -1}}, http.StatusBadRequest},
		{"negative snapshot size", wal.ShipPos{Files: map[string]int64{m.Snapshot: -5}}, http.StatusBadRequest},
		{"snapshot past the primary's", wal.ShipPos{Files: map[string]int64{m.Snapshot: 1 << 40}}, http.StatusBadRequest},
		{"fresh follower", wal.ShipPos{}, http.StatusOK},
	} {
		if code := subscribe(tc.pos); code != tc.code {
			t.Errorf("%s: status %d, want %d", tc.what, code, tc.code)
		}
	}
}
