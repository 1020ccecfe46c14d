package sim

import (
	"context"
	"errors"
	"testing"

	"repdir/internal/fault"
	"repdir/internal/keyspace"
	"repdir/internal/transport"
)

// TestStoragePhaseSuspendsAfterFailedRebuilds is the regression test
// for a storage phase that retried rebuilds under a fault schedule that
// never let one finish. Here every call opens a fresh partition window,
// so no attempt run under fire can assemble a read quorum; the phase
// must hold the chaos for a maintenance window after a few failed
// attempts (as the churn step does) instead of giving up with "rebuild
// of rep0 would not complete", and the schedule must resume afterwards.
func TestStoragePhaseSuspendsAfterFailedRebuilds(t *testing.T) {
	cfg := ChaosConfig{
		Seed: 1,
		Plan: fault.Plan{PPartition: 1, DownMin: 1, DownMax: 1},
	}.withDefaults()
	h, err := buildChaosHarness(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var res ChaosResult
	if err := storagePhase(h, 0, &res); err != nil {
		t.Fatal(err)
	}
	if res.StorageLosses != 1 || res.Rebuilds != 1 {
		t.Fatalf("storage losses %d, rebuilds %d; want 1 and 1", res.StorageLosses, res.Rebuilds)
	}
	members := h.injectors[0].Members()
	if members[0].NeedsRebuild() {
		t.Error("rebuilt member still awaits its rebuild")
	}
	// Injection resumed: a live member's next call opens a window.
	if _, err := members[1].Lookup(context.Background(), 1, keyspace.New("k")); !errors.Is(err, transport.ErrUnavailable) {
		t.Fatalf("call after the storage phase = %v, want the schedule's ErrUnavailable", err)
	}
}
