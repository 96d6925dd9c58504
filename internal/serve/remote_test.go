package serve

// Differential proof that the daemon is a transparent execution fabric:
// results fetched over HTTP are bit-identical to local simulation, for a
// single full evaluation matrix (RemoteEvaluation vs RunEvaluation)
// and for N concurrent tenant clients hammering an overlapping job set
// (the ISSUE's end-to-end acceptance scenario). Identity is exact
// (reflect.DeepEqual), which simultaneously pins the JSON wire format as
// lossless for every Result field.

import (
	"context"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"

	"fxa"
	"fxa/internal/sweep"
)

const remoteTestInsts = 4_000

func TestRemoteEvaluationMatchesLocal(t *testing.T) {
	cache, err := sweep.OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv := New(Config{Cache: cache})
	ts := httptest.NewServer(srv.Handler())
	defer func() {
		ts.Close()
		_ = srv.Close()
	}()
	client := &Client{BaseURL: ts.URL, Tenant: "bench"}

	remote, hits, err := RemoteEvaluation(context.Background(), client, 0, remoteTestInsts, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	if hits != 0 {
		t.Errorf("first remote sweep reported %d cache hits on an empty cache", hits)
	}
	local, _, err := fxa.RunEvaluation(context.Background(), 0, remoteTestInsts, fxa.SweepOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}

	if len(remote.Rows) != len(local.Rows) {
		t.Fatalf("remote has %d rows, local %d", len(remote.Rows), len(local.Rows))
	}
	for i, lr := range local.Rows {
		rr := remote.Rows[i]
		if rr.Workload.Name != lr.Workload.Name {
			t.Fatalf("row %d: workload %q != %q (ordering broken)", i, rr.Workload.Name, lr.Workload.Name)
		}
		for _, m := range local.ModelNames() {
			if !reflect.DeepEqual(rr.Res[m], lr.Res[m]) {
				t.Errorf("%s on %s: remote result differs from local", lr.Workload.Name, m)
			}
			if !reflect.DeepEqual(rr.Energy[m], lr.Energy[m]) {
				t.Errorf("%s on %s: remote energy differs from local", lr.Workload.Name, m)
			}
		}
	}

	// Re-running the whole matrix remotely is now pure cache.
	again, hits2, err := RemoteEvaluation(context.Background(), client, 0, remoteTestInsts, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	total := len(fxa.Workloads()) * len(fxa.Models())
	if hits2 != total {
		t.Errorf("second remote sweep: %d/%d cells cached, want all", hits2, total)
	}
	if !reflect.DeepEqual(remote.Rows, again.Rows) {
		t.Error("cached remote evaluation differs from the computed one")
	}
}

// TestFabricEndToEnd is the acceptance scenario: three tenants
// concurrently submit the same 10-cell job set. Every result must be
// bit-identical to a serial local run, each distinct cell must simulate
// exactly once (singleflight + shared cache), and the 20 duplicate
// submissions must all be answered from another tenant's work.
func TestFabricEndToEnd(t *testing.T) {
	cache, err := sweep.OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv := New(Config{Workers: 4, Cache: cache})
	ts := httptest.NewServer(srv.Handler())
	defer func() {
		ts.Close()
		_ = srv.Close()
	}()

	// The overlapping job set: 2 workloads x all models.
	type cell struct {
		model, workload string
	}
	var cells []cell
	for _, w := range fxa.Workloads()[:2] {
		for _, m := range fxa.Models() {
			cells = append(cells, cell{m.Name, w.Name})
		}
	}

	// Serial local reference, bit-for-bit.
	want := make([]fxa.Result, len(cells))
	for i, cl := range cells {
		m, err := fxa.ModelByName(cl.model)
		if err != nil {
			t.Fatal(err)
		}
		w, err := fxa.WorkloadByName(cl.workload)
		if err != nil {
			t.Fatal(err)
		}
		want[i], err = fxa.EvaluationJob(m, w, 0, remoteTestInsts).Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
	}

	tenants := []string{"alice", "bob", "carol"}
	got := make([][]fxa.Result, len(tenants))
	errs := make([]error, len(tenants))
	var wg sync.WaitGroup
	for ti, tenant := range tenants {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := &Client{BaseURL: ts.URL, Tenant: tenant}
			res := make([]fxa.Result, len(cells))
			for i, cl := range cells {
				id, err := c.Submit(context.Background(), JobSpec{
					Model: cl.model, Workload: cl.workload, MaxInsts: remoteTestInsts,
				})
				if err == nil {
					res[i], _, err = c.Wait(context.Background(), id)
				}
				if err != nil {
					errs[ti] = err
					return
				}
			}
			got[ti] = res
		}()
	}
	wg.Wait()

	for ti, tenant := range tenants {
		if errs[ti] != nil {
			t.Fatalf("tenant %s: %v", tenant, errs[ti])
		}
		for i, cl := range cells {
			if !reflect.DeepEqual(got[ti][i], want[i]) {
				t.Errorf("tenant %s, %s on %s: remote result differs from serial local run",
					tenant, cl.workload, cl.model)
			}
		}
	}

	// Fabric accounting: 30 submissions, 10 simulations, 20 answered from
	// a concurrent identical run or the shared cache — and since each
	// tenant submits each cell once, every one of those 20 was served by
	// work another tenant initiated.
	st := srv.Stats()
	nCells, nSubs := uint64(len(cells)), uint64(len(cells)*len(tenants))
	if st.Submitted != nSubs || st.Completed != nSubs {
		t.Errorf("submitted/completed = %d/%d, want %d", st.Submitted, st.Completed, nSubs)
	}
	if st.Ran != nCells {
		t.Errorf("Ran = %d, want exactly %d (each distinct cell simulates once)", st.Ran, nCells)
	}
	if st.CacheHits+st.Collapsed != nSubs-nCells {
		t.Errorf("CacheHits+Collapsed = %d+%d, want %d cross-tenant shares",
			st.CacheHits, st.Collapsed, nSubs-nCells)
	}
	if st.CacheHits+st.Collapsed < 1 {
		t.Error("no cross-tenant cache sharing observed")
	}
	for _, tenant := range tenants {
		tstats := st.Tenants[tenant]
		if tstats.Completed != nCells {
			t.Errorf("tenant %s completed %d jobs, want %d", tenant, tstats.Completed, nCells)
		}
		if tstats.Ran+tstats.CacheHits+tstats.Collapsed != nCells {
			t.Errorf("tenant %s accounting %+v does not sum to %d", tenant, tstats, nCells)
		}
	}
}
