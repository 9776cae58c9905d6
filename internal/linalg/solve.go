package linalg

import "fmt"

// Triangular solves, the tile building blocks for the Cholesky solve
// (POTRS) the Chameleon layer composes.

// TrsmLeftLowerNonUnit solves L*X = alpha*B in place over B
// (forward substitution per column).
func TrsmLeftLowerNonUnit[T Float](alpha T, l, b *Mat[T]) {
	checkLeft(l, b)
	n := l.Rows
	for j := 0; j < b.Cols; j++ {
		for i := 0; i < n; i++ {
			s := alpha * b.At(i, j)
			lrow := l.Row(i)
			for k := 0; k < i; k++ {
				s -= lrow[k] * b.At(k, j)
			}
			b.Set(i, j, s/lrow[i])
		}
	}
}

// TrsmLeftLowerTransNonUnit solves Lᵀ*X = alpha*B in place over B
// (backward substitution per column).
func TrsmLeftLowerTransNonUnit[T Float](alpha T, l, b *Mat[T]) {
	checkLeft(l, b)
	n := l.Rows
	for j := 0; j < b.Cols; j++ {
		for i := n - 1; i >= 0; i-- {
			s := alpha * b.At(i, j)
			for k := i + 1; k < n; k++ {
				s -= l.At(k, i) * b.At(k, j)
			}
			b.Set(i, j, s/l.At(i, i))
		}
	}
}

func checkLeft[T Float](tri, b *Mat[T]) {
	if tri.Rows != tri.Cols || b.Rows != tri.Rows {
		panic(fmt.Sprintf("linalg: left trsm shape mismatch: T=%dx%d B=%dx%d", tri.Rows, tri.Cols, b.Rows, b.Cols))
	}
}
