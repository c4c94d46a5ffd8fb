let unused = 0
