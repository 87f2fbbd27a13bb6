package server_test

// BenchmarkServerThroughputObs isolates the cost of the session
// observability plane on the server's hot path: the same 8-session
// end-to-end workload as BenchmarkServerThroughput, once with no registry
// (scoped counters, histograms and session metrics all nil no-ops) and once
// fully instrumented (per-session scope chained to a root registry, flight
// recorder always on). The enabled-path budget is ≤5% (`make bench-obs`).

import (
	"context"
	"sync"
	"testing"
	"time"

	"butterfly/internal/client"
	"butterfly/internal/epoch"
	"butterfly/internal/obs"
	"butterfly/internal/server"
)

func BenchmarkServerThroughputObs(b *testing.B) {
	const sessions = 8
	for _, instr := range []struct {
		name string
		reg  func() *obs.Registry
	}{
		{"nil", func() *obs.Registry { return nil }},
		{"registry", obs.New},
	} {
		b.Run("instr="+instr.name, func(b *testing.B) {
			s, err := server.Listen("127.0.0.1:0", server.Config{
				MaxSessions: 1024,
				Obs:         instr.reg(),
			})
			if err != nil {
				b.Fatal(err)
			}
			go s.Serve()
			defer func() {
				ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
				defer cancel()
				s.Shutdown(ctx)
			}()

			grids := make([]*epoch.Grid, sessions)
			var events int64
			for i := range grids {
				grids[i] = benchGrid(b, int64(i))
				events += int64(grids[i].TotalEvents())
			}
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				var wg sync.WaitGroup
				for i := 0; i < sessions; i++ {
					wg.Add(1)
					go func(i int) {
						defer wg.Done()
						res, err := client.Run(s.Addr(), client.Options{}, epoch.NewGridRows(grids[i]))
						if err != nil {
							b.Error(err)
						} else if res.Events != grids[i].TotalEvents() {
							b.Errorf("session %d analyzed %d events, want %d",
								i, res.Events, grids[i].TotalEvents())
						}
					}(i)
				}
				wg.Wait()
			}
			b.ReportMetric(float64(events)*float64(b.N)/b.Elapsed().Seconds(), "events/s")
		})
	}
}
