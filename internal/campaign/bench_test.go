package campaign_test

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"gadt/internal/campaign"
)

// BenchmarkCampaignWorkers measures the same fixed-seed campaign under
// different pool sizes; the multi-worker rows should beat workers=1 on
// wall clock (ns/op) on any multi-core machine:
//
//	go test -bench=CampaignWorkers -benchtime=1x ./internal/campaign
func BenchmarkCampaignWorkers(b *testing.B) {
	counts := []int{1, 2, 4}
	if n := runtime.GOMAXPROCS(0); n > 4 {
		counts = append(counts, n)
	}
	for _, workers := range counts {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rep, err := campaign.Run(campaign.Config{
					Seed:    1,
					Budget:  48,
					Workers: workers,
					Timeout: time.Minute,
				})
				if err != nil {
					b.Fatal(err)
				}
				// Proven-equivalent mutants bypass the budget, so
				// only the rest count against it.
				if got := rep.Mutants - rep.Equivalent; got != 48 {
					b.Fatalf("evaluated %d non-equivalent mutants, want 48", got)
				}
			}
		})
	}
}
