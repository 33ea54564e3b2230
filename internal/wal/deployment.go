package wal

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"

	"rfidtrack/internal/model"
	"rfidtrack/internal/sim"
)

// deploymentName is the per-directory deployment record file.
const deploymentName = "DEPLOYMENT"

// Deployment is a data directory's deployment record: everything the log's
// meaning depends on — a reading is (epoch, tag, mask) against one tag
// space, reader layout and checkpoint grid, and replaying it against another
// yields a plausible, wrong state — plus the one figure a restart cannot
// re-derive without re-simulating the world's readings. The daemon writes it
// once the first start over a directory has passed its checks and refuses a
// later start whose flags disagree with it (Mismatch).
type Deployment struct {
	// Sim generates the world: tags, kinds, rates, schedule, ground truth.
	Sim sim.Config `json:"sim"`
	// Interval is Δ, the checkpoint grid the snapshots lie on.
	Interval model.Epoch `json:"interval"`
	// Strategy names the migration strategy (dist.Strategy.String).
	Strategy string `json:"strategy"`
	// Query reports whether the continuous query is attached (snapshots
	// carry its state, the alert segment its matches).
	Query bool `json:"query"`
	// CentralizedBytes is dist.Result.CentralizedBytes of this world, which
	// is derived from the simulated readings; it is not compared.
	CentralizedBytes int `json:"centralized_bytes"`
}

// Mismatch names the first field in which want — what this start's flags
// describe — differs from the recorded d, with both values; "" when the two
// describe the same deployment.
func (d Deployment) Mismatch(want Deployment) string {
	d.CentralizedBytes, want.CentralizedBytes = 0, 0
	if d == want {
		return ""
	}
	diff := func(prefix string, a, b reflect.Value) string {
		for i := 0; i < a.NumField(); i++ {
			if f := a.Type().Field(i); f.Type.Kind() != reflect.Struct && a.Field(i).Interface() != b.Field(i).Interface() {
				return fmt.Sprintf("%s%s: recorded %v, started with %v", prefix, f.Name, a.Field(i), b.Field(i))
			}
		}
		return ""
	}
	if m := diff("sim.", reflect.ValueOf(d.Sim), reflect.ValueOf(want.Sim)); m != "" {
		return m
	}
	return diff("", reflect.ValueOf(d), reflect.ValueOf(want))
}

// ReadDeployment returns the directory's deployment record, nil when it has
// none (a fresh directory, one written by an earlier release, or a standby's
// mirror: the record is not shipped).
func ReadDeployment(dir string) (*Deployment, error) {
	b, err := os.ReadFile(filepath.Join(dir, deploymentName))
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var d Deployment
	if err := json.Unmarshal(b, &d); err != nil {
		return nil, fmt.Errorf("wal: corrupt deployment record: %w", err)
	}
	return &d, nil
}

// WriteDeployment durably records the directory's deployment, creating the
// directory if needed.
func WriteDeployment(dir string, d Deployment) error {
	b, err := json.Marshal(d)
	if err != nil {
		return err
	}
	return writeFileAtomic(dir, deploymentName, append(b, '\n'))
}

// writeFileAtomic replaces dir/name with b so that a crash leaves either the
// old content or the new: write a temp file, fsync, rename, fsync the
// directory.
func writeFileAtomic(dir, name string, b []byte) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp := filepath.Join(dir, name+".tmp")
	if err := writeFileSync(tmp, b); err != nil {
		return err
	}
	if err := os.Rename(tmp, filepath.Join(dir, name)); err != nil {
		return err
	}
	return syncDir(dir)
}
