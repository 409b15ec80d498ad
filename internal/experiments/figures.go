package experiments

import (
	"fmt"
	"io"

	"repro/internal/area"
)

// Fig5Row is one point of the frequency/area trade-off (Fig. 5).
type Fig5Row struct {
	TargetMHz float64
	AreaUm2   float64
}

// Fig5 sweeps the synthesis target frequency for the arity-5, 32-bit
// router, as in Fig. 5 (500-900 MHz).
func Fig5() []Fig5Row {
	var rows []Fig5Row
	for f := 500.0; f <= 900; f += 25 {
		rows = append(rows, Fig5Row{TargetMHz: f, AreaUm2: area.RouterArea(5, 32, f)})
	}
	return rows
}

// WriteFig5 renders the sweep.
func WriteFig5(w io.Writer) {
	fmt.Fprintln(w, "Fig. 5 — frequency/area trade-off, arity-5 router, 32-bit data width")
	fmt.Fprintf(w, "%12s %14s\n", "target (MHz)", "cell area (µm²)")
	for _, r := range Fig5() {
		fmt.Fprintf(w, "%12.0f %14.0f\n", r.TargetMHz, r.AreaUm2)
	}
	fmt.Fprintf(w, "fmax(5,32) = %.0f MHz; area saturates at %.0f µm²\n",
		area.RouterFmaxMHz(5, 32), area.RouterMaxArea(5, 32))
}

// Fig6Row is one point of the arity or width sweep (Fig. 6).
type Fig6Row struct {
	Arity     int
	WidthBits int
	AreaUm2   float64
	FmaxMHz   float64
}

// Fig6a sweeps router arity at 32-bit width, synthesised for maximum
// frequency.
func Fig6a() []Fig6Row {
	var rows []Fig6Row
	for p := 2; p <= 7; p++ {
		rows = append(rows, Fig6Row{
			Arity: p, WidthBits: 32,
			AreaUm2: area.RouterMaxArea(p, 32),
			FmaxMHz: area.RouterFmaxMHz(p, 32),
		})
	}
	return rows
}

// Fig6b sweeps data width for the arity-6 router, synthesised for maximum
// frequency.
func Fig6b() []Fig6Row {
	var rows []Fig6Row
	for w := 32; w <= 256; w += 32 {
		rows = append(rows, Fig6Row{
			Arity: 6, WidthBits: w,
			AreaUm2: area.RouterMaxArea(6, w),
			FmaxMHz: area.RouterFmaxMHz(6, w),
		})
	}
	return rows
}

// WriteFig6a renders the arity sweep.
func WriteFig6a(w io.Writer) {
	fmt.Fprintln(w, "Fig. 6(a) — cell area and maximum frequency vs arity, 32-bit data width")
	fmt.Fprintf(w, "%6s %14s %11s\n", "arity", "area (µm²)", "fmax (MHz)")
	for _, r := range Fig6a() {
		fmt.Fprintf(w, "%6d %14.0f %11.0f\n", r.Arity, r.AreaUm2, r.FmaxMHz)
	}
}

// WriteFig6b renders the width sweep.
func WriteFig6b(w io.Writer) {
	fmt.Fprintln(w, "Fig. 6(b) — cell area and maximum frequency vs data width, arity-6 router")
	fmt.Fprintf(w, "%12s %14s %11s\n", "width (bits)", "area (µm²)", "fmax (MHz)")
	for _, r := range Fig6b() {
		fmt.Fprintf(w, "%12d %14.0f %11.0f\n", r.WidthBits, r.AreaUm2, r.FmaxMHz)
	}
}

// LinkRow is one line of the Section V area comparison.
type LinkRow struct {
	Item    string
	AreaUm2 float64
}

// LinkTable reproduces the Section V / VII area comparison around the
// mesochronous link pipeline stages.
func LinkTable() []LinkRow {
	return []LinkRow{
		{"4-word 32-bit bi-sync FIFO, custom cells [18]", area.FIFOArea(4, 32, true)},
		{"4-word 32-bit bi-sync FIFO, standard cells [4]", area.FIFOArea(4, 32, false)},
		{"link pipeline stage (FIFO + FSM), standard cells", area.LinkStageArea(32, false)},
		{"aelite arity-5 router, 32-bit, 600 MHz", area.RouterArea(5, 32, 600)},
		{"aelite arity-5 router + 5 mesochronous link stages", area.MesochronousRouterArea(5, 32, 600, false)},
		{"aelite ditto with custom FIFOs", area.MesochronousRouterArea(5, 32, 600, true)},
		{"mesochronous router of [4] (90 nm)", area.MesochronousRouterRef4},
		{"asynchronous router of [7] (scaled to 90 nm)", area.AsynchronousRouterRef7},
		{"Æthereal GS+BE router, 90 nm model", area.GSBERouterArea(5, 32)},
		{"Æthereal GS+BE router, 130 nm [8] scaled to 90 nm", area.ScaleArea(area.AethercalGSBE130Area, 130, 90)},
	}
}

// WriteLinkTable renders the comparison.
func WriteLinkTable(w io.Writer) {
	fmt.Fprintln(w, "Section V/VII — mesochronous link and router area comparison (90 nm cell area)")
	for _, r := range LinkTable() {
		fmt.Fprintf(w, "%-55s %10.0f µm² (%.4f mm²)\n", r.Item, r.AreaUm2, r.AreaUm2/1e6)
	}
	fmt.Fprintf(w, "GS-only vs GS+BE: %.1fx smaller, %.1fx faster\n",
		area.GSBERouterArea(5, 32)/area.RouterNominalArea(5, 32), area.GSBESpeedRatio)
}

// ThroughputRow is the E6 headline: raw throughput of high-arity routers.
type ThroughputRow struct {
	Arity, WidthBits int
	FmaxMHz          float64
	OneWayGBps       float64
	FullDuplexGBps   float64
	AreaUm2          float64
}

// Throughput computes the Section VII throughput-per-area claim for the
// arity-6, 64-bit router (and neighbours for context).
func Throughput() []ThroughputRow {
	var rows []ThroughputRow
	for _, c := range []struct{ p, w int }{{5, 32}, {6, 32}, {6, 64}, {6, 128}} {
		f := area.RouterFmaxMHz(c.p, c.w)
		one := area.RawThroughputGBps(c.p, c.w, f)
		rows = append(rows, ThroughputRow{
			Arity: c.p, WidthBits: c.w, FmaxMHz: f,
			OneWayGBps:     one,
			FullDuplexGBps: 2 * one,
			AreaUm2:        area.RouterArea(c.p, c.w, 600),
		})
	}
	return rows
}

// WriteThroughput renders the throughput table.
func WriteThroughput(w io.Writer) {
	fmt.Fprintln(w, "Section VII — raw router throughput at fmax (paper quotes 64 Gbyte/s at 0.03 mm² for arity-6, 64-bit)")
	fmt.Fprintf(w, "%6s %6s %10s %12s %12s %14s\n", "arity", "width", "fmax(MHz)", "1-way GB/s", "duplex GB/s", "area@600 (µm²)")
	for _, r := range Throughput() {
		fmt.Fprintf(w, "%6d %6d %10.0f %12.1f %12.1f %14.0f\n",
			r.Arity, r.WidthBits, r.FmaxMHz, r.OneWayGBps, r.FullDuplexGBps, r.AreaUm2)
	}
}

// WriteAreaQuery answers one query of the calibrated 90 nm area/frequency
// model (internal/area): router cell area and maximum frequency for the
// given arity, data width and target frequency, plus the mesochronous-link
// and GS+BE baseline numbers.
func WriteAreaQuery(w io.Writer, arity, widthBits int, targetMHz float64, customFIFO bool) {
	fmax := area.RouterFmaxMHz(arity, widthBits)
	fmt.Fprintf(w, "aelite router, arity %d, %d-bit data width (90 nm low-power, worst case):\n", arity, widthBits)
	fmt.Fprintf(w, "  maximum frequency        %8.0f MHz\n", fmax)
	fmt.Fprintf(w, "  area at %4.0f MHz         %8.0f µm²  (%.4f mm²)\n",
		targetMHz, area.RouterArea(arity, widthBits, targetMHz), area.RouterArea(arity, widthBits, targetMHz)/1e6)
	fmt.Fprintf(w, "  area at fmax             %8.0f µm²  (%.4f mm²)\n",
		area.RouterMaxArea(arity, widthBits), area.RouterMaxArea(arity, widthBits)/1e6)
	fmt.Fprintf(w, "  raw throughput at fmax   %8.1f Gbyte/s one-way (%.1f full duplex)\n",
		area.RawThroughputGBps(arity, widthBits, fmax), 2*area.RawThroughputGBps(arity, widthBits, fmax))

	fifo := area.FIFOArea(area.LinkFIFOWords, widthBits, customFIFO)
	kind := "standard-cell"
	if customFIFO {
		kind = "custom"
	}
	fmt.Fprintf(w, "mesochronous link pipeline stage (%s FIFO):\n", kind)
	fmt.Fprintf(w, "  4-word bi-sync FIFO      %8.0f µm²\n", fifo)
	fmt.Fprintf(w, "  stage (FIFO + FSM)       %8.0f µm²\n", area.LinkStageArea(widthBits, customFIFO))
	fmt.Fprintf(w, "  complete router + links  %8.0f µm²  (%.4f mm²)\n",
		area.MesochronousRouterArea(arity, widthBits, targetMHz, customFIFO),
		area.MesochronousRouterArea(arity, widthBits, targetMHz, customFIFO)/1e6)

	fmt.Fprintf(w, "Æthereal GS+BE baseline (same arity/width):\n")
	fmt.Fprintf(w, "  area                     %8.0f µm²  (%.1fx aelite)\n",
		area.GSBERouterArea(arity, widthBits),
		area.GSBERouterArea(arity, widthBits)/area.RouterNominalArea(arity, widthBits))
	fmt.Fprintf(w, "  maximum frequency        %8.0f MHz  (aelite is %.1fx faster)\n",
		area.GSBERouterFmaxMHz(arity, widthBits), area.GSBESpeedRatio)
}
