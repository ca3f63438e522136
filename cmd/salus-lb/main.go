// Command salus-lb hosts a federated Salus region on localhost: N shard
// gateways, each owning a disjoint FPGA pool behind its own scheduler,
// fronted by one federation tier that routes sessions on a consistent-hash
// ring (tenant + data-key keyed), spills them to the least-loaded sibling
// when their home shard saturates, and brokers the enclave-to-enclave
// data-key hand-off.
//
// The data owner attests ONLY the root shard — salus-lb writes the root's
// expectations to -exp, and cmd/salus-client (attest and run sealed jobs)
// and its fleet/top subcommands work against the front tier unchanged.
// Every other shard in the region is keyed lazily by the sibling hand-off
// the first time the ring routes it work: O(1) owner attestation cost per
// region, not per shard.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"time"

	"salus"
	"salus/internal/client"
	"salus/internal/federation"
	"salus/internal/remote"
	"salus/internal/sched"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("salus-lb: ")
	kernel := flag.String("kernel", "Conv", "benchmark kernel to deploy region-wide")
	addr := flag.String("addr", "127.0.0.1:7010", "federation front-tier address")
	expPath := flag.String("exp", "salus-expectations.json", "where to write the data owner's (root shard) expectations")
	shards := flag.Int("shards", 3, "number of shard gateways in the region")
	devices := flag.Int("devices", 2, "FPGA devices per shard")
	queue := flag.Int("queue", sched.DefaultQueueDepth, "per-device job queue depth")
	vnodes := flag.Int("vnodes", federation.DefaultVirtualNodes, "virtual nodes per shard on the routing ring")
	spillHigh := flag.Float64("spill-high", federation.DefaultSpillHighWater, "mean queued jobs per device at which a shard spills")
	tenantRate := flag.Float64("tenant-rate", 0, "sustained jobs/sec each tenant may submit (0 disables)")
	tenantBurst := flag.Float64("tenant-burst", 0, "per-tenant burst depth (0 defaults to -tenant-rate)")
	maxP99 := flag.Duration("max-p99", 0, "shed non-critical work when live p99 job latency exceeds this (0 disables)")
	statsEvery := flag.Duration("stats-interval", 0, "print the federation routing/shard snapshot every interval (0 disables)")
	flag.Parse()

	k, ok := salus.KernelByName(*kernel)
	if !ok {
		log.Fatalf("unknown kernel %q", *kernel)
	}
	d, err := federation.BuildLocal(federation.LocalSpec{
		Shards:          *shards,
		DevicesPerShard: *devices,
		Kernel:          k,
		Scheduler:       sched.Config{QueueDepth: *queue},
		Federation: federation.Config{
			VirtualNodes:   *vnodes,
			SpillHighWater: *spillHigh,
		},
		RemoteHandshake: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer d.Close()

	var gwOpts []remote.GatewayOption
	if *tenantRate > 0 || *maxP99 > 0 {
		adm := remote.NewAdmission(remote.AdmissionConfig{
			TenantRate:  *tenantRate,
			TenantBurst: *tenantBurst,
			MaxP99:      *maxP99,
		})
		gwOpts = append(gwOpts, remote.WithAdmission(adm))
		fmt.Printf("admission control:  tenant-rate=%g/s burst=%g max-p99=%v\n", *tenantRate, *tenantBurst, *maxP99)
	}
	srv, bound, err := remote.ServeFederation(d.Fed, d.RootSystems, *addr, gwOpts...)
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	fmt.Println("federation tier:    ", bound)
	fmt.Printf("region:              %d shards x %d devices, root %s, %d vnodes/shard, spill at %g queued/device\n",
		*shards, *devices, d.Fed.Root(), *vnodes, *spillHigh)

	exps := make([]client.Expectations, len(d.RootSystems))
	for i, sys := range d.RootSystems {
		exps[i] = sys.Expectations()
	}
	expJSON, err := json.MarshalIndent(exps, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	if err := os.WriteFile(*expPath, expJSON, 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Println("expectations written:", *expPath, "(root shard only — the owner never attests the siblings)")

	stopStats := make(chan struct{})
	if *statsEvery > 0 {
		fmt.Println("stats every:        ", *statsEvery)
		go func() {
			t := time.NewTicker(*statsEvery)
			defer t.Stop()
			for {
				select {
				case <-stopStats:
					return
				case <-t.C:
					st := d.Fed.Stats()
					fmt.Printf("--- federation %s --- epoch=%d routed=%d spilled=%d handoffs=%d\n",
						time.Now().Format(time.TimeOnly), st.Epoch, st.Routed, st.Spilled, st.Handoffs)
					for _, sh := range st.Shards {
						fmt.Printf("  %-6s devices=%d queued=%d pressure=%.2f keyed=%v root=%v\n",
							sh.ID, sh.Devices, sh.Queued, sh.Pressure, sh.Keyed, sh.Root)
					}
				}
			}
		}()
	}

	fmt.Println("waiting for a data owner — Ctrl-C to stop")
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	<-sig
	close(stopStats)
	fmt.Println("\nshutting down")
}
