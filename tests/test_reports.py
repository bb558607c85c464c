import numpy as np

from qhkit.reports import write_csv


def test_csv_writes_numpy_scalars_as_plain_numbers(tmp_path):
    path = tmp_path / "rows.csv"
    write_csv(str(path), [(np.int64(3), np.float64(2.3758227898546895), np.float64(0.1),
                           1.5, np.int64(1))], header=("id", "a", "b", "c", "pass"))
    assert path.read_text(encoding="utf-8").splitlines() == [
        "id,a,b,c,pass", "3,2.3758227898546895,0.1,1.5,1"]
