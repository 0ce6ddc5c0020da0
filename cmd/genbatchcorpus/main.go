// Command genbatchcorpus regenerates the committed seed corpus for
// FuzzBatchBoundary (internal/check/testdata/fuzz/FuzzBatchBoundary).
//
// Each seed is one fuzz input: [design/fault selector, batch-size
// selector, epoch selector, op records...]. The matrix below pins the
// boundaries the fuzz target's doc comment promises: batch sizes 1, 2,
// odd, and 4096, telemetry epochs that straddle batch boundaries, fault
// injection on and off, and every workload family.
//
// Usage: go run ./cmd/genbatchcorpus [-out dir]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"repro/internal/check"
	"repro/internal/config"
	"repro/internal/runner"
)

func main() {
	out := flag.String("out", "internal/check/testdata/fuzz/FuzzBatchBoundary",
		"corpus output directory")
	flag.Parse()

	sys := config.Default().Scaled(1024)
	if err := sys.Validate(); err != nil {
		log.Fatalf("scaled system invalid: %v", err)
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		log.Fatal(err)
	}

	// One row per seed: the raw selector bytes. Selector semantics live in
	// FuzzBatchBoundary; the size/epoch indices below reference its
	// batchFuzzSizes {1, 2, 3, 7, 33, 97, 256, 4096} and batchFuzzEpochs
	// {0, 1, 97, 13} tables. Odd design selectors turn fault injection on.
	rows := []struct {
		design byte // AllDesigns index; low bit = faults
		size   byte // batchFuzzSizes index
		epoch  byte // batchFuzzEpochs index
	}{
		{0 << 1, 0, 0},   // bumblebee, batch 1, telemetry off
		{0 << 1, 1, 2},   // bumblebee, batch 2, epoch 97
		{0<<1 | 1, 2, 1}, // bumblebee + faults, odd batch 3, epoch 1
		{0<<1 | 1, 7, 2}, // bumblebee + faults, batch 4096, epoch 97
		{3 << 1, 3, 3},   // hybrid2, batch 7, epoch 13 (mid-batch epochs)
		{4<<1 | 1, 5, 2}, // chameleon + faults, batch 97, epoch 97
		{5 << 1, 4, 1},   // banshee, batch 33, epoch 1
		{6 << 1, 7, 0},   // alloy, batch 4096, telemetry off
		{7<<1 | 1, 0, 2}, // unison + faults, batch 1, epoch 97
		{8 << 1, 6, 3},   // no-hbm, batch 256 (= op count), epoch 13
	}
	// The four synthetic families, in suite order: the committed corpus
	// was generated from them, so regeneration reproduces it byte for byte.
	families := []check.Family{check.FamilyZipf, check.FamilyScan, check.FamilyPhase, check.FamilyAlias}
	for i, row := range rows {
		fam := families[i%len(families)]
		ops := check.GenOps(fam, runner.Seed("fuzz-batch-corpus", string(fam), fmt.Sprint(i)), 64, sys)
		data := append([]byte{row.design, row.size, row.epoch}, check.BytesFromOps(ops)...)
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", data)
		name := filepath.Join(*out, fmt.Sprintf("seed-%02d", i))
		if err := os.WriteFile(name, []byte(body), 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s: design-sel=%d size-sel=%d epoch-sel=%d family=%s ops=%d\n",
			name, row.design, row.size, row.epoch, fam, len(ops))
	}
}
