#include "analyzer/embedded_sources.hpp"

namespace wrf::analyzer::sources {

const std::string& kernals_ks() {
  static const std::string src = R"f90(
module module_mp_fast_sbm
  implicit none
  integer, parameter :: nkr = 33
  real :: cwls(33,33), cwlg(33,33), cwlh(33,33), cwll(33,33)
  real :: ywls_750mb(33,33,1), ywls_500mb(33,33,1)
  real :: ywlg_750mb(33,33,1), ywlg_500mb(33,33,1)
  real :: ywlh_750mb(33,33,1), ywlh_500mb(33,33,1)
  real :: ywll_750mb(33,33,1), ywll_500mb(33,33,1)
contains
subroutine kernals_ks(p_z)
  implicit none
  real, intent(in) :: p_z
  integer :: i, j
  real :: ckern_1, ckern_2, scale
  do j = 1, nkr
    do i = 1, nkr
      ckern_1 = ywls_750mb(i,j,1)
      ckern_2 = ywls_500mb(i,j,1)
      scale = (p_z - 50000.0) / 25000.0
      cwls(i,j) = ckern_2 + (ckern_1 - ckern_2) * scale
      ckern_1 = ywlg_750mb(i,j,1)
      ckern_2 = ywlg_500mb(i,j,1)
      cwlg(i,j) = ckern_2 + (ckern_1 - ckern_2) * scale
      ckern_1 = ywlh_750mb(i,j,1)
      ckern_2 = ywlh_500mb(i,j,1)
      cwlh(i,j) = ckern_2 + (ckern_1 - ckern_2) * scale
      ckern_1 = ywll_750mb(i,j,1)
      ckern_2 = ywll_500mb(i,j,1)
      cwll(i,j) = ckern_2 + (ckern_1 - ckern_2) * scale
    enddo
  enddo
end subroutine kernals_ks
end module module_mp_fast_sbm
)f90";
  return src;
}

const std::string& grid_loop() {
  static const std::string src = R"f90(
subroutine fast_sbm_driver(t_old, tt, its, ite, kts, kte, jts, jte)
  implicit none
  integer, intent(in) :: its, ite, kts, kte, jts, jte
  real, intent(in) :: t_old(ite,kte,jte)
  real, intent(in) :: tt(ite,kte,jte)
  integer :: i, k, j
  do j = jts, jte
    do k = kts, kte
      do i = its, ite
        if (t_old(i,k,j) > 193.15) then
          call jernucl01_ks(i, k, j)
          if (t_old(i,k,j) > 273.15) then
            call onecond1(i, k, j)
          else
            call onecond2(i, k, j)
          endif
          if (tt(i,k,j) > 223.15) then
            call coal_bott_new(i, k, j)
          endif
        endif
      enddo
    enddo
  enddo
end subroutine fast_sbm_driver
)f90";
  return src;
}

const std::string& coal_isolated_loop() {
  static const std::string src = R"f90(
subroutine coal_pass(call_coal_bott_new, its, ite, kts, kte, jts, jte)
  implicit none
  integer, intent(in) :: its, ite, kts, kte, jts, jte
  logical, intent(in) :: call_coal_bott_new(ite,kte,jte)
  integer :: i, k, j
  do j = jts, jte
    do k = kts, kte
      do i = its, ite
        if (call_coal_bott_new(i,k,j)) then
          call coal_bott_new(i, k, j)
        endif
      enddo
    enddo
  enddo
end subroutine coal_pass
pure subroutine coal_bott_new(iin, kin, jin)
  implicit none
  integer, intent(in) :: iin, kin, jin
end subroutine coal_bott_new
)f90";
  return src;
}

const std::string& coal_bott_decl() {
  static const std::string src = R"f90(
subroutine coal_bott_new(iin, kin, jin, dt_coll)
  implicit none
  !$omp declare target
  integer, intent(in) :: iin, kin, jin
  real, intent(in) :: dt_coll
  real :: fl1(33), fl2(33), fl3(33)
  real :: g1(33), g2(33,3), g3(33)
  real :: g4(33), g5(33)
  integer :: i
  do i = 1, 33
    fl1(i) = 0.0
    fl2(i) = 0.0
    fl3(i) = 0.0
    g1(i) = 0.0
    g3(i) = 0.0
    g4(i) = 0.0
    g5(i) = 0.0
  enddo
end subroutine coal_bott_new
)f90";
  return src;
}

const std::string& carried_dep_loop() {
  static const std::string src = R"f90(
subroutine prefix_sum(a, n)
  implicit none
  integer, intent(in) :: n
  real, intent(inout) :: a(n)
  integer :: i
  do i = 2, n
    a(i) = a(i) + a(i-1)
  enddo
end subroutine prefix_sum
)f90";
  return src;
}

const std::string& reduction_loop() {
  static const std::string src = R"f90(
subroutine total_mass(g, n, s)
  implicit none
  integer, intent(in) :: n
  real, intent(in) :: g(n)
  real, intent(out) :: s
  integer :: i
  s = 0.0
  do i = 1, n
    s = s + g(i)
  enddo
end subroutine total_mass
)f90";
  return src;
}

const std::string& legacy_onecond() {
  static const std::string src = R"f90(
subroutine onecond1(tt, qv, pp, ff, nbins)
  implicit none
  real :: tt
  real :: qv
  real, intent(in) :: pp
  real :: ff(*)
  integer, intent(in) :: nbins
  integer :: k
  do k = 1, nbins
    ff(k) = ff(k) * 1.0001
  enddo
end subroutine onecond1
)f90";
  return src;
}

const std::string& cond_kernel() {
  static const std::string src = R"f90(
subroutine cond_kernel(temp, qv, pres, call_coal, ff, nbin, its, ite, kts, kte, jts, jte)
  implicit none
  integer, intent(in) :: nbin, its, ite, kts, kte, jts, jte
  real, intent(inout) :: temp(ite,kte,jte)
  real, intent(inout) :: qv(ite,kte,jte)
  real, intent(in) :: pres(ite,kte,jte)
  integer, intent(out) :: call_coal(ite,kte,jte)
  real, intent(inout) :: ff(nbin,ite,kte,jte)
  integer :: i, k, j, n
  real :: sat
  do j = jts, jte
    do k = kts, kte
      do i = its, ite
        call_coal(i,k,j) = 0
        if (temp(i,k,j) > 193.15) then
          sat = qv(i,k,j) * pres(i,k,j)
          do n = 1, nbin
            ff(n,i,k,j) = ff(n,i,k,j) + sat * 0.001
          enddo
          temp(i,k,j) = temp(i,k,j) + sat * 0.0005
          qv(i,k,j) = qv(i,k,j) - sat * 0.0005
          if (temp(i,k,j) > 223.15) then
            call_coal(i,k,j) = 1
          endif
        endif
      enddo
    enddo
  enddo
end subroutine cond_kernel
)f90";
  return src;
}

const std::string& coal_kernel() {
  static const std::string src = R"f90(
subroutine coal_kernel(temp, pres, call_coal, ff, nbin, its, ite, kts, kte, jts, jte)
  implicit none
  integer, intent(in) :: nbin, its, ite, kts, kte, jts, jte
  real, intent(in) :: temp(ite,kte,jte)
  real, intent(in) :: pres(ite,kte,jte)
  integer, intent(in) :: call_coal(ite,kte,jte)
  real, intent(inout) :: ff(nbin,ite,kte,jte)
  integer :: i, k, j, n
  real :: scale
  do j = jts, jte
    do k = kts, kte
      do i = its, ite
        if (call_coal(i,k,j) > 0) then
          scale = (pres(i,k,j) - 50000.0) / 25000.0
          do n = 1, nbin
            ff(n,i,k,j) = ff(n,i,k,j) * (1.0 + scale * temp(i,k,j) * 0.00001)
          enddo
        endif
      enddo
    enddo
  enddo
end subroutine coal_kernel
)f90";
  return src;
}

const std::string& sed_kernel() {
  static const std::string src = R"f90(
subroutine sed_kernel(ff, rho, precip, vt, nbin, its, ite, kts, kte, jts, jte)
  implicit none
  integer, intent(in) :: nbin, its, ite, kts, kte, jts, jte
  real, intent(inout) :: ff(nbin,ite,kte,jte)
  real, intent(in) :: rho(ite,kte,jte)
  real, intent(inout) :: precip(ite,jte)
  real, intent(in) :: vt(nbin)
  integer :: i, k, j, n
  do j = jts, jte
    do k = kts, kte
      do i = its, ite
        do n = 1, nbin
          ff(n,i,k,j) = ff(n,i,k,j) + vt(n) * (ff(n,i,k+1,j) - ff(n,i,k,j)) / rho(i,k,j)
          precip(i,j) = precip(i,j) + vt(n) * ff(n,i,k,j)
        enddo
      enddo
    enddo
  enddo
end subroutine sed_kernel
)f90";
  return src;
}

const std::string& war_pair() {
  static const std::string src = R"f90(
subroutine war_reader(a, b, its, ite, kts, kte, jts, jte)
  implicit none
  integer, intent(in) :: its, ite, kts, kte, jts, jte
  real, intent(in) :: a(ite,kte,jte)
  real, intent(out) :: b(ite,kte,jte)
  integer :: i, k, j
  do j = jts, jte
    do k = kts, kte
      do i = its, ite
        b(i,k,j) = a(i+1,k,j) * 0.5
      enddo
    enddo
  enddo
end subroutine war_reader
subroutine war_writer(a, its, ite, kts, kte, jts, jte)
  implicit none
  integer, intent(in) :: its, ite, kts, kte, jts, jte
  real, intent(inout) :: a(ite,kte,jte)
  integer :: i, k, j
  do j = jts, jte
    do k = kts, kte
      do i = its, ite
        a(i,k,j) = a(i,k,j) * 0.9
      enddo
    enddo
  enddo
end subroutine war_writer
)f90";
  return src;
}

}  // namespace wrf::analyzer::sources
