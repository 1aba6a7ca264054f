package exp

import "fmt"

// Hardware-side experiments: Table II, Table III, Fig. 2a, Fig. 2b, the
// §V-B.1 NTT/key-switch throughput comparison, and the Fig. 5 floorplan.

func runTable2() []*Table {
	c := ChamConfig()
	rows, total, pct := Table2(c.Engine, c.NumEngines)
	t := &Table{
		ID:      "table2",
		Title:   "Resource utilization on the Xilinx VU9P FPGA",
		Columns: []string{"Module", "LUT", "FF", "BRAM", "URAM", "DSP"},
	}
	for _, r := range rows {
		t.AddRow(r.Module, itoa(r.Res.LUT), itoa(r.Res.FF), itoa(r.Res.BRAM), itoa(r.Res.URAM), itoa(r.Res.DSP))
	}
	t.AddRow("Total", itoa(total.LUT), itoa(total.FF), itoa(total.BRAM), itoa(total.URAM), itoa(total.DSP))
	t.AddRow("Total (%)",
		f2(pct["LUT"])+"%", f2(pct["FF"])+"%", f2(pct["BRAM"])+"%", f2(pct["URAM"])+"%", f2(pct["DSP"])+"%")
	if err := CheckTable2Calibration(); err != nil {
		t.Notes = append(t.Notes, "CALIBRATION FAILURE: "+err.Error())
	} else {
		t.Notes = append(t.Notes, "matches the paper's Table II exactly")
	}
	return []*Table{t}
}

func runTable3() []*Table {
	t := &Table{
		ID:      "table3",
		Title:   "Comparison of a single NTT module (N=4096)",
		Columns: []string{"Accelerator", "Latency", "Mults", "ATP(l*p)", "LUT", "BRAM", "ATP(l*u)"},
	}
	c := ChamConfig()
	for _, r := range Table3(c.N, c.Engine.NBF) {
		lut, atpu := "-", "-"
		if r.LUT > 0 {
			lut = itoa(r.LUT)
			atpu = f2(r.ATPLUT) + "x"
		}
		bram := "-"
		if r.Name != "F1" {
			bram = itoa(r.BRAM)
		}
		t.AddRow(r.Name, itoa(r.Latency), itoa(r.Mults), f2(r.ATPMults)+"x", lut, bram, atpu)
	}
	if err := CheckTable3Calibration(); err != nil {
		t.Notes = append(t.Notes, "CALIBRATION FAILURE: "+err.Error())
	} else {
		t.Notes = append(t.Notes, "CHAM rows match the paper's Table III exactly; HEAX/F1 are published figures")
	}
	return []*Table{t}
}

func runFig2a() []*Table {
	t := &Table{
		ID:      "fig2a",
		Title:   "Roofline model on the U200 (ops = 27x18 multiplies)",
		Columns: []string{"Kernel", "Intensity (ops/B)", "Attainable (Gops/s)", "Bound"},
	}
	for _, p := range Roofline(U200) {
		t.AddRow(p.Kernel, f2(p.Intensity), f1(p.Attainable/1e9), p.Bound)
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("ridge intensity %.1f ops/B; peak %.0f Gops/s; DDR %.0f GB/s",
			Ridge(U200), U200.PeakDSPOps()/1e9, U200.DDRGBps))
	return []*Table{t}
}

func runFig2b() []*Table {
	pts := Explore(VU9P)
	fitting := 0
	for _, p := range pts {
		if p.Fits {
			fitting++
		}
	}
	t := &Table{
		ID:      "fig2b",
		Title:   "Design-space exploration: Pareto frontier",
		Columns: []string{"Design point", "Freq", "rows/s", "max util", "fits"},
	}
	for _, p := range Frontier(pts) {
		t.AddRow(p.Label(), f1(p.FreqMHz)+" MHz", kops(p.RowsSec), f1(100*p.MaxUtil)+"%", "yes")
	}
	t.Notes = append(t.Notes, fmt.Sprintf("%d points explored, %d fit the %.0f%% ceiling", len(pts), fitting, 100*Ceiling))
	if best, ok := Best(pts); ok {
		t.Notes = append(t.Notes, "selected (CHAM): "+best.Label())
	}
	return []*Table{t}
}

func runNTTOps() []*Table {
	c := ChamConfig()
	t := &Table{
		ID:      "nttops",
		Title:   "Operator throughput (Section V-B.1)",
		Columns: []string{"Metric", "CHAM", "Comparison", "Ratio"},
	}
	ntt := c.NTTOpsPerSec()
	t.AddRow("NTT ops/s (15-transform bundles)", kops(ntt), "HEAX 117k", f2(ntt/117e3)+"x")
	t.AddRow("NTT ops/s vs GPU", kops(ntt), "GPU 45k", f2(ntt/45e3)+"x")
	ks := c.KeySwitchOpsPerSec()
	cpuKS := 1 / Xeon6130().KeySwitchSeconds(c)
	t.AddRow("Key-switch ops/s", kops(ks), fmt.Sprintf("CPU %.0f", cpuKS), f1(ks/cpuKS)+"x")
	t.AddRow("NTT units", itoa(c.NumEngines*c.Engine.TotalNTT()), "paper: 60", "-")
	t.Notes = append(t.Notes, "paper: 195k NTT ops/s, 65k key switches/s (105x CPU)")
	return []*Table{t}
}

func runFig5() []*Table {
	t := &Table{
		ID:      "fig5",
		Title:   "Floorplan: initial vs rebalanced utilization",
		Columns: []string{"stage", "LUT", "FF", "BRAM", "URAM", "DSP", "fits"},
	}
	row := func(name string, fp *Floorplan) {
		u := fp.Total.Util(VU9P)
		fits := "no"
		if fp.Fits() {
			fits = "yes"
		}
		t.AddRow(name,
			f2(u["LUT"])+"%", f2(u["FF"])+"%", f2(u["BRAM"])+"%",
			f2(u["URAM"])+"%", f2(u["DSP"])+"%", fits)
	}
	c := ChamConfig()
	fp := InitialFloorplan(VU9P, c.Engine, c.NumEngines)
	row("initial", fp)
	if err := fp.Rebalance(); err != nil {
		t.Notes = append(t.Notes, "CALIBRATION FAILURE: "+err.Error())
		return []*Table{t}
	}
	row("rebalanced", fp)
	t.Notes = append(t.Notes, fmt.Sprintf("%d conversion moves applied", len(fp.History)-2))
	return []*Table{t}
}
