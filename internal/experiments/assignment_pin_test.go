package experiments

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"repro/internal/mapping"
	"repro/internal/topogen"
)

// table1AssignmentPins are SHA-256 digests of the node→engine assignment of
// every Table-1 cell (ScaLapack, seed 42, 20 virtual seconds). They were
// computed with the partitioner as it stood before rebalance was rewritten
// around incremental connectivity vectors and cycle skipping; that rewrite
// is an exact optimization, so every digest must still match. A mismatch
// means some mapping decision changed, which moves Table-1 rows.
var table1AssignmentPins = map[string]string{
	"Campus/TOP":       "67205dbbc403644565a1bb518443265a803e8954902639b5fc1b98144d2bff98",
	"Campus/PLACE":     "627f34e7db59da5c064f94a4e763c0e1ad6bb3053264f74b2dca0cbbb233c4c8",
	"Campus/PROFILE":   "35a2d62d1e5e1fe10c4de7252ceaf68ed5df5fd9c58d95d72ee9022f94164ea7",
	"TeraGrid/TOP":     "f19e7b4d6fd83cf3729dea494f0c02a0e4d04d366a69d035b5879530f159821e",
	"TeraGrid/PLACE":   "1f82cf9c25aa6c2a94d701c1f1fd0351c055f3ae4fed5e4c678f8231917a3e8d",
	"TeraGrid/PROFILE": "f3993ca6476d9c4b8ee629be5411cd58e2c8c9ed94f18d70cf1ac36f1eb0713f",
	"Brite/TOP":        "c1afe0a4076d4d2e2bceacfb9122d25b99bd240a1857ecd604c02bd7dff434c7",
	"Brite/PLACE":      "a26f61aee5317d13ae17dbefa9df0b7e5ac7fb128b6d99f8be0dce9b469799a4",
	"Brite/PROFILE":    "c829fce96f58f4fb86fa9bd1dd77687dbb1c33b43f067d519d1276b922d742e9",
}

// assignmentDigest hashes an assignment as little-endian int64s.
func assignmentDigest(part []int) string {
	h := sha256.New()
	var b [8]byte
	for _, p := range part {
		binary.LittleEndian.PutUint64(b[:], uint64(p))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestTable1AssignmentPin partitions every Table-1 cell (PROFILE including
// its profiling pre-run) and compares each assignment against its pin.
func TestTable1AssignmentPin(t *testing.T) {
	if testing.Short() {
		t.Skip("partitions all nine Table-1 cells")
	}
	cfg := Config{Duration: 20, Seed: 42}
	for _, spec := range topogen.Table1() {
		sc, err := ScenarioFor(cfg, spec.Name, "ScaLapack")
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range mapping.Approaches() {
			part, _, err := sc.Partition(context.Background(), a)
			if err != nil {
				t.Fatalf("%s/%s: %v", spec.Name, a, err)
			}
			name := spec.Name + "/" + string(a)
			if got, want := assignmentDigest(part), table1AssignmentPins[name]; got != want {
				t.Errorf("%s: assignment digest %s, pinned %s", name, got, want)
			}
		}
	}
}
