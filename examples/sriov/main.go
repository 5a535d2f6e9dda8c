// SR-IOV example: the paper's Section VII applied. Under direct device
// assignment the guest's doorbell writes bypass the hypervisor, so the
// I/O-request exits are gone by construction — but interrupt delivery
// still traps without VT-d posted interrupts, and responsiveness under
// core multiplexing still needs intelligent interrupt redirection.
//
//	go run ./examples/sriov
package main

import (
	"fmt"
	"log"
	"time"

	"es2"
)

func main() {
	fmt.Println("== SR-IOV direct assignment, netperf TCP send (1-vCPU VM)")
	fmt.Printf("%-22s %12s %12s %8s\n", "Config", "IOExits/s", "IntrExits/s", "TIG")
	for _, c := range []struct {
		name string
		cfg  es2.Config
	}{
		{"no VT-d PI", es2.Baseline()},
		{"VT-d PI", es2.PIOnly()},
	} {
		res, err := es2.Run(es2.ScenarioSpec{
			Name: "sriov/" + c.name, Seed: 21, Config: c.cfg,
			Workload:     es2.WorkloadSpec{Kind: es2.NetperfTCPSend, MsgBytes: 1024},
			DirectAssign: true,
			Duration:     time.Second,
		})
		if err != nil {
			log.Fatal(err)
		}
		intr := res.ExitRates["ExternalInterrupt"] + res.ExitRates["APICAccess"]
		fmt.Printf("%-22s %12.0f %12.0f %7.1f%%\n", c.name, res.IOExitRate, intr, 100*res.TIG)
	}

	fmt.Println("\n== VT-d PI + redirection under core multiplexing (ping RTT)")
	for _, c := range []struct {
		name string
		cfg  es2.Config
	}{
		{"VT-d PI only", es2.PIOnly()},
		{"VT-d PI + redirection", es2.Config{PI: true, Redirect: true}},
	} {
		res, err := es2.Run(es2.ScenarioSpec{
			Name: "sriov-ping/" + c.name, Seed: 21, Config: c.cfg,
			Workload:     es2.WorkloadSpec{Kind: es2.Ping, PingInterval: 50 * time.Millisecond},
			DirectAssign: true,
			VMs:          4, VCPUs: 4, VMCores: 4, VhostCores: 4,
			Duration: 3 * time.Second,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-22s mean RTT %v (p99 %v)\n", c.name,
			res.MeanLatency.Round(time.Microsecond), res.P99Latency.Round(time.Microsecond))
	}
}
