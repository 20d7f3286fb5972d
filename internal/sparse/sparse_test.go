package sparse

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/cluster"
	"repro/internal/mp"
)

func sim() mp.Config { return mp.Config{Model: cluster.Preset("ib-64n")} }

func TestCSRValidate(t *testing.T) {
	good := &CSR{
		Rows: 2, Cols: 3,
		RowPtr: []int{0, 2, 3},
		ColIdx: []int{0, 2, 1},
		Val:    []float64{1, 2, 3},
	}
	if err := good.Validate(); err != nil {
		t.Errorf("valid CSR rejected: %v", err)
	}
	if len(good.Val) != 3 {
		t.Errorf("%d stored entries, want 3", len(good.Val))
	}
	bad := &CSR{Rows: 2, Cols: 3, RowPtr: []int{0, 2}, ColIdx: []int{0, 2}, Val: []float64{1, 2}}
	if err := bad.Validate(); err == nil {
		t.Error("short rowptr accepted")
	}
	bad2 := &CSR{Rows: 1, Cols: 2, RowPtr: []int{0, 1}, ColIdx: []int{5}, Val: []float64{1}}
	if err := bad2.Validate(); err == nil {
		t.Error("out-of-range column accepted")
	}
}

func TestMatVecKnown(t *testing.T) {
	// [1 0 2; 0 3 0] * [1 1 1] = [3 3]
	m := &CSR{
		Rows: 2, Cols: 3,
		RowPtr: []int{0, 2, 3},
		ColIdx: []int{0, 2, 1},
		Val:    []float64{1, 2, 3},
	}
	y := make([]float64, 2)
	if err := m.MatVec([]float64{1, 1, 1}, y); err != nil {
		t.Fatal(err)
	}
	if y[0] != 3 || y[1] != 3 {
		t.Errorf("MatVec = %v", y)
	}
	if err := m.MatVec([]float64{1}, y); err == nil {
		t.Error("dimension mismatch accepted")
	}
}

func TestRandomSPDStructure(t *testing.T) {
	m, err := RandomSPD(50, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	// Symmetric: A(i,j) == A(j,i) for all stored entries.
	get := func(i, j int) float64 {
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			if m.ColIdx[k] == j {
				return m.Val[k]
			}
		}
		return 0
	}
	for i := 0; i < m.Rows; i++ {
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			j := m.ColIdx[k]
			if get(j, i) != m.Val[k] {
				t.Fatalf("asymmetry at (%d,%d)", i, j)
			}
		}
		// Diagonal dominance (implies SPD for symmetric).
		var off float64
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			if m.ColIdx[k] != i {
				off += math.Abs(m.Val[k])
			}
		}
		if get(i, i) <= off {
			t.Fatalf("row %d not diagonally dominant", i)
		}
	}
}

func TestRandomSPDDeterministic(t *testing.T) {
	a, _ := RandomSPD(30, 3, 42)
	b, _ := RandomSPD(30, 3, 42)
	if len(a.Val) != len(b.Val) {
		t.Fatal("same seed, different structure")
	}
	for i := range a.Val {
		if a.Val[i] != b.Val[i] {
			t.Fatal("same seed, different values")
		}
	}
}

func TestRandomSPDValidation(t *testing.T) {
	if _, err := RandomSPD(0, 1, 1); err == nil {
		t.Error("n=0 accepted")
	}
	if _, err := RandomSPD(5, 5, 1); err == nil {
		t.Error("nnzPerRow >= n accepted")
	}
}

func TestRowSlice(t *testing.T) {
	m, _ := RandomSPD(20, 3, 7)
	s, err := m.RowSlice(5, 12)
	if err != nil {
		t.Fatal(err)
	}
	if s.Rows != 7 || s.Cols != 20 {
		t.Fatalf("slice shape %dx%d", s.Rows, s.Cols)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	// Slice matvec equals the corresponding rows of the full matvec.
	x := make([]float64, 20)
	for i := range x {
		x[i] = float64(i) - 9.5
	}
	yFull := make([]float64, 20)
	ySlice := make([]float64, 7)
	m.MatVec(x, yFull)
	s.MatVec(x, ySlice)
	for i := 0; i < 7; i++ {
		if math.Abs(ySlice[i]-yFull[5+i]) > 1e-12 {
			t.Fatalf("slice row %d: %v vs %v", i, ySlice[i], yFull[5+i])
		}
	}
	if _, err := m.RowSlice(10, 25); err == nil {
		t.Error("out-of-range slice accepted")
	}
}

func TestCGSolves(t *testing.T) {
	for _, n := range []int{10, 50, 200} {
		a, err := RandomSPD(n, 4, uint64(n))
		if err != nil {
			t.Fatal(err)
		}
		xTrue := make([]float64, n)
		for i := range xTrue {
			xTrue[i] = math.Sin(float64(i))
		}
		b := make([]float64, n)
		a.MatVec(xTrue, b)
		x := make([]float64, n)
		res, err := CG(a, b, x, 10*n, 1e-10)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Converged {
			t.Fatalf("n=%d: CG did not converge: %+v", n, res)
		}
		for i := range x {
			if math.Abs(x[i]-xTrue[i]) > 1e-6 {
				t.Fatalf("n=%d: x[%d] = %v, want %v", n, i, x[i], xTrue[i])
			}
		}
	}
}

func TestCGDimensionCheck(t *testing.T) {
	a, _ := RandomSPD(5, 2, 1)
	if _, err := CG(a, make([]float64, 4), make([]float64, 5), 10, 1e-8); err == nil {
		t.Error("bad b length accepted")
	}
}

func TestDistCGMatchesSerial(t *testing.T) {
	const n = 96
	a, err := RandomSPD(n, 4, 9)
	if err != nil {
		t.Fatal(err)
	}
	xTrue := make([]float64, n)
	for i := range xTrue {
		xTrue[i] = float64(i%5) - 2
	}
	b := make([]float64, n)
	a.MatVec(xTrue, b)

	for _, p := range []int{1, 2, 3, 4} {
		t.Run(fmt.Sprintf("p=%d", p), func(t *testing.T) {
			// Uneven partition: rank r gets n/p rows, remainder to the
			// last rank.
			counts := make([]int, p)
			for i := range counts {
				counts[i] = n / p
			}
			counts[p-1] += n % p
			err := mp.Run(p, sim(), func(c *mp.Comm) error {
				lo := 0
				for r := 0; r < c.Rank(); r++ {
					lo += counts[r]
				}
				hi := lo + counts[c.Rank()]
				aLoc, err := a.RowSlice(lo, hi)
				if err != nil {
					return err
				}
				xLoc, res, err := DistCG(c, aLoc, b[lo:hi], counts, 10*n, 1e-10)
				if err != nil {
					return err
				}
				if !res.Converged {
					return fmt.Errorf("DistCG did not converge: %+v", res)
				}
				for i := range xLoc {
					if math.Abs(xLoc[i]-xTrue[lo+i]) > 1e-6 {
						return fmt.Errorf("x[%d] = %v, want %v", lo+i, xLoc[i], xTrue[lo+i])
					}
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestDistCGValidation(t *testing.T) {
	err := mp.Run(2, sim(), func(c *mp.Comm) error {
		a, _ := RandomSPD(4, 1, 1)
		aLoc, _ := a.RowSlice(0, 2)
		if _, _, err := DistCG(c, aLoc, make([]float64, 2), []int{2}, 5, 1e-8); err == nil {
			return fmt.Errorf("short counts accepted")
		}
		if _, _, err := DistCG(c, aLoc, make([]float64, 3), []int{2, 2}, 5, 1e-8); err == nil {
			return fmt.Errorf("bad b length accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestMatVecLinearityProperty(t *testing.T) {
	a, _ := RandomSPD(40, 3, 5)
	f := func(seed uint16) bool {
		s := uint64(seed)
		x1 := make([]float64, 40)
		x2 := make([]float64, 40)
		for i := range x1 {
			s = s*6364136223846793005 + 1442695040888963407
			x1[i] = float64(int16(s>>48)) / 1000
			x2[i] = float64(int16(s>>32)) / 1000
		}
		sum := make([]float64, 40)
		for i := range sum {
			sum[i] = x1[i] + x2[i]
		}
		y1 := make([]float64, 40)
		y2 := make([]float64, 40)
		ys := make([]float64, 40)
		a.MatVec(x1, y1)
		a.MatVec(x2, y2)
		a.MatVec(sum, ys)
		for i := range ys {
			if math.Abs(ys[i]-(y1[i]+y2[i])) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
