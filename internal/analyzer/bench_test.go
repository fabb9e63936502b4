package analyzer

import (
	"testing"

	"ndpgpu/internal/config"
	"ndpgpu/internal/vm"
	"ndpgpu/internal/workloads"
)

func BenchmarkAnalyzeSuite(b *testing.B) {
	mem := vm.New(config.Default())
	ws := make(map[string]*workloads.Workload)
	for _, abbr := range workloads.Abbrs() {
		w, err := workloads.Build(abbr, mem, 1)
		if err != nil {
			b.Fatal(err)
		}
		ws[abbr] = w
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, w := range ws {
			if _, err := Analyze(w.Kernel); err != nil {
				b.Fatal(err)
			}
		}
	}
}
