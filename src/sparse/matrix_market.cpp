#include "sparse/matrix_market.hpp"

#include <fstream>
#include <sstream>

#include "sparse/coo.hpp"
#include "util/check.hpp"

namespace rpcg {

CsrMatrix read_matrix_market(std::istream& in) {
  std::string line;
  RPCG_CHECK(static_cast<bool>(std::getline(in, line)), "empty MatrixMarket stream");
  std::istringstream header(line);
  std::string banner, object, format, field, symmetry;
  header >> banner >> object >> format >> field >> symmetry;
  RPCG_CHECK(banner == "%%MatrixMarket", "missing MatrixMarket banner");
  RPCG_CHECK(object == "matrix" && format == "coordinate",
             "only coordinate matrices are supported");
  RPCG_CHECK(field == "real" || field == "integer",
             "only real/integer fields are supported");
  RPCG_CHECK(symmetry == "general" || symmetry == "symmetric",
             "only general/symmetric matrices are supported");
  const bool symmetric = symmetry == "symmetric";

  while (std::getline(in, line)) {
    if (!line.empty() && line[0] != '%') break;
  }
  std::istringstream dims(line);
  Index rows = 0, cols = 0, entries = 0;
  RPCG_CHECK(static_cast<bool>(dims >> rows >> cols >> entries),
             "size line must hold rows, columns and entry count");
  RPCG_CHECK(rows > 0 && cols > 0 && entries >= 0, "invalid size line");

  // The entry count is not trusted to size an allocation: a header can claim
  // any count, and the stream running out is what bounds the entries read.
  TripletBuilder b;
  for (Index e = 0; e < entries; ++e) {
    RPCG_CHECK(static_cast<bool>(std::getline(in, line)),
               "unexpected end of MatrixMarket stream");
    std::istringstream es(line);
    Index r = 0, c = 0;
    double v = 0.0;
    RPCG_CHECK(static_cast<bool>(es >> r >> c >> v),
               "entry line must hold row, column and value");
    RPCG_CHECK(r >= 1 && r <= rows && c >= 1 && c <= cols,
               "entry index out of range");
    b.add(r - 1, c - 1, v);
    if (symmetric && r != c) b.add(c - 1, r - 1, v);
  }
  // Nor is the size line trusted to size the row pointers: a matrix whose
  // entries cannot fill every row and column has an empty one, is singular,
  // and no solver here can use it. Each entry fills one row and one column,
  // an off-diagonal one in symmetric storage two of each.
  const Index filled = symmetric ? 2 * entries : entries;
  RPCG_CHECK(rows <= filled && cols <= filled,
             "size line claims more rows or columns than its entries can fill");
  return b.build(rows, cols);
}

CsrMatrix read_matrix_market_file(const std::string& path) {
  std::ifstream in(path);
  RPCG_CHECK(in.good(), "cannot open file: " + path);
  return read_matrix_market(in);
}

void write_matrix_market(std::ostream& out, const CsrMatrix& a) {
  out << "%%MatrixMarket matrix coordinate real general\n";
  out << a.rows() << " " << a.cols() << " " << a.nnz() << "\n";
  out.precision(17);
  for (Index r = 0; r < a.rows(); ++r) {
    const auto rc = a.row_cols(r);
    const auto rv = a.row_vals(r);
    for (std::size_t p = 0; p < rc.size(); ++p)
      out << (r + 1) << " " << (rc[p] + 1) << " " << rv[p] << "\n";
  }
}

void write_matrix_market_file(const std::string& path, const CsrMatrix& a) {
  std::ofstream out(path);
  RPCG_CHECK(out.good(), "cannot open file for writing: " + path);
  write_matrix_market(out, a);
}

}  // namespace rpcg
